"""Disjointness (Kneser) graphs, exact clique and disjoint-tuple counts, Turán densities, blow-ups.

Adjacency is one int bit row per vertex; all counting is exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, perm
from typing import NamedTuple, Optional, Sequence

from .errors import (
    DEFAULT_GRAPH_CAP, CapExceeded, FamilyFormatError, GensetError, WorkLimitExceeded,
    refuse_past_digit_limit,
)
from .families import (
    Estimate, SetFamily, _bits, _content_lines, _key_value, comb_log2_bounds, subset_fraction,
)

DEFAULT_BLOWUP_CAP = 64
# Most steps find_blowup takes; K_{32,32} with a = 3, t = 2 takes 744,096.
DEFAULT_BLOWUP_WORK_LIMIT = 800_000
DEFAULT_CLIQUE_WORK_LIMIT = 200_000_000
# Labeled graphs on l vertices number 2^C(l, 2); l = 7 is 2^21.
ERDOS_L_CAP = 7
# The clique walk's edge-count cache (see _clique_profile). An entry is charged
# for a key of m bits, m // 7 bytes (an int holds 30 bits in 4 bytes), plus 160
# for its dict slot, its count and the key's header.
CLIQUE_CACHE_BYTES = 1 << 22
CLIQUE_CACHE_ENTRY_BYTES = 160
CLIQUE_CACHE_TRIAL = 1024


class Graph(NamedTuple):
    """Undirected graph as per-vertex bit rows, vertices numbered 0..m-1."""

    rows: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def graph_from_edges(m: int, edges) -> Graph:
    rows = [0] * m
    for u, v in edges:
        if not (0 <= u < m and 0 <= v < m) or u == v:
            raise GensetError(f"bad edge ({u}, {v}) for {m} vertices")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(tuple(rows))


def disjointness_graph(fam: SetFamily, graph_cap: int = DEFAULT_GRAPH_CAP) -> Graph:
    """Vertices are family members (family order); edges join disjoint pairs."""
    if fam.m > graph_cap:
        raise CapExceeded(f"family of size {fam.m} exceeds graph cap {graph_cap}")
    masks = fam.members
    # cols[e]: the vertices whose member contains element e. A member meets
    # exactly the members in the columns of its own elements.
    cols = [0] * fam.n
    for v, g in enumerate(masks):
        for e in _bits(g):
            cols[e] |= 1 << v
    full = (1 << len(masks)) - 1
    rows = []
    for v, g in enumerate(masks):
        meets = 1 << v
        for e in _bits(g):
            meets |= cols[e]
        rows.append(full ^ meets)
    return Graph(tuple(rows))


def _vertex_mask(m: int, within: Optional[int]) -> int:
    """within, or all m vertices when it is None; a mask with a bit outside 0..m-1 is refused."""
    if within is None:
        return (1 << m) - 1
    if within < 0 or within >> m:
        raise GensetError(f"vertex mask {within} has bits outside the {m} vertices")
    return within


def _clique_profile(
    rows: Sequence[int], r: int, work_limit: int, within: Optional[int] = None
) -> list[int]:
    """[1, m, K_2 count, ..., K_r count] of the graph with these bit rows, from one walk.

    Only the vertices in the mask within (all of them by default) are counted,
    m among them: the walk starts from within.

    walk(rest, size) takes a clique of `size` vertices and rest, their common
    neighbors, all labeled below the clique. It takes the vertices of rest from
    the top: the neighbors ext of v still in rest all lie below v, so ext's
    popcount tallies the (size+2)-cliques and the ints narrow as the walk goes
    down. The walk descends only while that size is below r.

    The last step (size + 2 == r) counts the edges among rest. For r >= 3 it
    runs once per (r-2)-clique, and the same rest comes back often: in the
    disjointness graph of an ascending family it is the members disjoint from
    the clique's union that lie below its lowest member, which every clique
    with that union and lowest member shares. So that step first looks rest up
    in a dict of edge counts, and stores the count it makes on a miss:
    - insertion stops once the entries would pass CLIQUE_CACHE_BYTES, each
      charged as if its key had all m bits;
    - a cache with fewer hits than entries at CLIQUE_CACHE_TRIAL entries, or
      at any doubling past that, is emptied and no longer consulted, so a
      graph whose rests do not repeat pays for about a thousand entries.
    At r <= 2 the last step is the first and runs once; it is never cached.

    Each vertex of rest is a step, charged on entry, whether or not the cache
    answers: one per clique of size 1 to r-1, at every r. A c-clique the walk
    meets has 2^c - 1 nonempty subsets, all steps, so one of more than
    `deepest` vertices exceeds the limit at once.
    """
    within = _vertex_mask(len(rows), within)
    deepest = (work_limit + 1).bit_length() - 1  # largest c with 2^c - 1 <= work_limit
    profile = [1] + [0] * r
    if r:
        profile[1] = within.bit_count()
    work = 0
    cache: Optional[dict[int, int]] = {} if r > 2 else None
    hits = 0

    def walk(rest: int, size: int) -> None:
        nonlocal work, cache, hits
        work += rest.bit_count()
        if work > work_limit:
            raise WorkLimitExceeded("clique counting exceeded its work limit")
        found = 0
        if size + 2 == r:
            key = rest
            if cache is not None:
                hit = cache.get(key)
                if hit is not None:
                    hits += 1
                    profile[r] += hit
                    return
            while rest:
                v = rest.bit_length() - 1
                rest ^= 1 << v
                found += (rows[v] & rest).bit_count()
            if cache is not None:
                held = len(cache)
                if held < CLIQUE_CACHE_BYTES // (len(rows) // 7 + CLIQUE_CACHE_ENTRY_BYTES):
                    cache[key] = found
                    held += 1
                    if held >= CLIQUE_CACHE_TRIAL and not held & (held - 1) and hits < held:
                        cache = None
        else:
            while rest:
                v = rest.bit_length() - 1
                rest ^= 1 << v
                ext = rows[v] & rest
                if ext:
                    found += ext.bit_count()
                    if size + 2 > deepest:
                        raise WorkLimitExceeded(
                            f"a {size + 2}-clique alone exceeds the clique work limit"
                        )
                    walk(ext, size + 1)
        profile[size + 2] += found

    if r >= 2:
        walk(within, 0)
    return profile


def count_cliques(graph: Graph, r: int, within: Optional[int] = None) -> int:
    """Exact number of r-cliques, by one walk that intersects bit rows down the vertex labels.

    With a vertex mask within, only the cliques of the subgraph it induces count.
    A negative mask, or one with a bit at or above m, raises GensetError.
    """
    if r < 1:
        raise GensetError("r must be >= 1")
    within = _vertex_mask(graph.m, within)
    if r > within.bit_count():
        return 0
    return _clique_profile(graph.rows, r, DEFAULT_CLIQUE_WORK_LIMIT, within)[r]


def count_disjoint_tuples(fam: SetFamily, k: int, graph_cap: int = DEFAULT_GRAPH_CAP) -> int:
    """Number of unordered tuples of at most k pairwise disjoint distinct members.

    These are the cliques of the disjointness graph, the empty tuple and the
    empty set included, so the count is 1 + sum over r <= k of its r-clique
    counts. The graph is built from the members' element columns, testing no
    pair, but its m(m-1)/2 pairs are charged against DEFAULT_CLIQUE_WORK_LIMIT
    first.
    """
    if k < 0:
        raise GensetError("k must be >= 0")
    m = fam.m
    if k <= 1:
        return 1 + k * m
    pairs = m * (m - 1) // 2
    limit = DEFAULT_CLIQUE_WORK_LIMIT
    if pairs > limit:
        raise WorkLimitExceeded(f"{pairs} pair tests exceed work limit {limit}")
    return sum(_clique_profile(disjointness_graph(fam, graph_cap).rows, min(k, m), limit - pairs))


def clique_density(graph: Graph, r: int, count: Optional[int] = None) -> Fraction:
    """count_cliques / C(m, r) as a reduced rational; pass count when it is already known."""
    if graph.m < r:
        raise GensetError(f"graph has {graph.m} < r = {r} vertices")
    if count is None:
        count = count_cliques(graph, r)
    return Fraction(count, comb(graph.m, r))


def turan_eta(r: int, s: int) -> Fraction:
    """Limiting r-clique density of the balanced complete s-partite graph: s(s-1)...(s-r+1)/s^r.

    The product of the 1 - i/s is at most e^{-r(r-1)/(2s)}, so the reduced
    denominator is at least 2^{r(r-1)/(2s ln 2)}, and ln 2 < 7/10. It is also
    s^(r-1) / gcd(N, s^(r-1)) with N = (r-1)! C(s-1, r-1). That gcd is at most
    (r-1)! < 2^((r-1) bitlen(r-1)) times p^v <= s - 1 for each of the fewer
    than bitlen(s) primes p of s (by Kummer, v <= log_p(s-1)).
    """
    if not 1 <= r <= s:
        raise GensetError(f"need 1 <= r <= s, got r={r}, s={s}")
    b = s.bit_length()
    by_gcd = (r - 1) * (b - 1 - (r - 1).bit_length()) - b * b
    refuse_past_digit_limit(max(Fraction(5 * r * (r - 1), 7 * s), by_gcd))
    return Fraction(perm(s, r), s**r)


def turan_blowup_graph(s: int, T: int, graph_cap: int = DEFAULT_GRAPH_CAP) -> Graph:
    """Complete s-partite graph with parts of size T, vertices part-major."""
    if s < 1 or T < 1:
        raise GensetError("need s >= 1 and T >= 1")
    if s * T > graph_cap:
        raise CapExceeded(f"{s * T} vertices exceed graph cap {graph_cap}")
    return balanced_turan_graph(s * T, s)


def balanced_turan_graph(l: int, s: int) -> Graph:
    """Complete s-partite graph on l vertices with near-equal parts."""
    base, extra = divmod(l, s)
    sizes = [base + 1] * extra + [base] * (s - extra)
    all_mask = (1 << l) - 1
    rows = []
    start = 0
    for size in sizes:
        part_mask = ((1 << size) - 1) << start
        rows.extend([all_mask & ~part_mask] * size)
        start += size
    return Graph(tuple(rows))


def turan_clique_closed_form(s: int, T: int, r: int) -> int:
    """Number of r-cliques in the s-partite Turán graph with parts of size T: C(s, r) T^r."""
    if not 1 <= r <= s:
        raise GensetError(f"need 1 <= r <= s, got r={r}, s={s}")
    if T < 1:
        raise GensetError(f"need T >= 1, got T={T}")
    refuse_past_digit_limit(r * (T.bit_length() - 1) + comb_log2_bounds(s, r)[0])
    return comb(s, r) * T**r


def find_blowup(graph: Graph, a: int, t: int) -> Optional[list[tuple[int, ...]]]:
    """a disjoint vertex classes of size t with every cross-class pair an edge, or None.

    Edges inside a class are allowed and ignored: only the cross edges of the
    complete a-partite pattern are required. Exhaustive backtracking; classes
    are found in increasing order of their smallest vertex. A class tried
    costs t + 1 steps, one per vertex and one for the search below it, and
    more than DEFAULT_BLOWUP_WORK_LIMIT steps raise WorkLimitExceeded.
    """
    if a < 2 or t < 1:
        raise GensetError("need a >= 2 and t >= 1")
    m = graph.m
    if m > DEFAULT_BLOWUP_CAP:
        raise CapExceeded(f"{m} vertices exceed blow-up cap {DEFAULT_BLOWUP_CAP}")
    rows = graph.rows
    work = 0

    def extend(classes: list[tuple[int, ...]], common: int, min_start: int):
        nonlocal work
        if len(classes) == a:
            return list(classes)
        need = a - len(classes)
        if common.bit_count() < need * t:
            return None
        for combo in itertools.combinations(_bits(common >> min_start << min_start), t):
            work += t + 1
            if work > DEFAULT_BLOWUP_WORK_LIMIT:
                raise WorkLimitExceeded("blow-up search exceeded its work limit")
            new_common = common
            for v in combo:
                new_common &= rows[v]
            for v in combo:
                new_common &= ~(1 << v)
            found = extend(classes + [combo], new_common, combo[0] + 1)
            if found is not None:
                return found
        return None

    return extend([], (1 << m) - 1, 0)


class ErdosMaxReport(NamedTuple):
    l: int
    s: int
    r: int
    max_count: int
    max_graph: Graph
    turan_count: int
    attained_by_turan: bool
    graphs_enumerated: int


def erdos_max_check(l: int, s: int, r: int) -> ErdosMaxReport:
    """Brute-force max of the r-clique count over all labeled K_{s+1}-free graphs on l vertices.

    Enumerates edge assignments pair by pair, pruning as soon as a K_{s+1}
    appears, and compares the maximum against the balanced s-partite Turán
    graph on l vertices.
    """
    if not 1 <= r <= s:
        raise GensetError(f"need 1 <= r <= s, got r={r}, s={s}")
    if l < 0:
        raise GensetError(f"need l >= 0, got l={l}")
    if l > ERDOS_L_CAP:
        raise CapExceeded(f"l={l} exceeds enumeration cap {ERDOS_L_CAP}")
    pairs = list(itertools.combinations(range(l), 2))
    rows = [0] * l
    best = {"count": -1, "rows": tuple(rows), "leaves": 0}

    def cliques_within(common: int, j: int) -> int:
        # j-cliques among the vertices of common; most calls end at a popcount.
        if j <= 1:
            return common.bit_count() if j else 1
        if common.bit_count() < j:
            return 0
        return _clique_profile(rows, j, DEFAULT_CLIQUE_WORK_LIMIT, common)[j]

    def walk(idx: int, count: int):
        if idx == len(pairs):
            best["leaves"] += 1
            if count > best["count"]:
                best["count"] = count
                best["rows"] = tuple(rows)
            return
        u, v = pairs[idx]
        # Edge (u, v) completes a K_{s+1} iff the common neighborhood of u and v
        # holds a K_{s-1}, and it adds one r-clique per (r-2)-clique there.
        common = rows[u] & rows[v]
        if not cliques_within(common, s - 1):
            gained = cliques_within(common, r - 2) if r > 1 else 0
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            walk(idx + 1, count + gained)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        walk(idx + 1, count)

    walk(0, l if r == 1 else 0)  # the edgeless graph has l 1-cliques
    turan_count = count_cliques(balanced_turan_graph(l, s), r)
    return ErdosMaxReport(
        l, s, r, best["count"], Graph(best["rows"]), turan_count,
        best["count"] == turan_count, best["leaves"],
    )


def dense_subset_fraction(
    graph: Graph,
    l: int,
    r: int,
    threshold: Fraction,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> Estimate:
    """Fraction of l-vertex subsets whose induced r-clique density reaches the threshold.

    Exact, or from `sample` subsets drawn with `seed`, as families.subset_fraction.
    All the subsets' clique walks share one DEFAULT_CLIQUE_WORK_LIMIT: a walk
    takes one step per clique of size 1 to r-1 that it meets.
    """
    m = graph.m
    if l > m:
        raise GensetError(f"l={l} exceeds vertex count {m}")
    if l < r:
        raise GensetError(f"need l >= r, got l={l}, r={r}")
    if r < 1:
        raise GensetError("r must be >= 1")
    r_sets = comb(l, r)
    left = DEFAULT_CLIQUE_WORK_LIMIT

    def is_dense(verts) -> bool:
        nonlocal left
        profile = _clique_profile(graph.rows, r, left, sum(1 << v for v in verts))
        left -= sum(profile[1:r])
        return Fraction(profile[r], r_sets) >= threshold

    return subset_fraction(range(m), l, lambda subsets: sum(map(is_dense, subsets)), sample, seed)


def format_graph(graph: Graph) -> str:
    """Edge-list text format: 'vertices=<m>' then 'u v' pairs, 0-based."""
    lines = [f"vertices={graph.m}"]
    for u in range(graph.m):
        row = graph.rows[u] >> (u + 1) << (u + 1)
        for v in _bits(row):
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str, graph_cap: int = DEFAULT_GRAPH_CAP) -> Graph:
    m = None
    edges = []
    for lineno, line in _content_lines(text):
        if m is None:
            m = _key_value(lineno, line, "vertices")
            if m < 0:
                raise FamilyFormatError(f"line {lineno}: negative vertex count {m}")
            if m > graph_cap:
                raise CapExceeded(f"{m} vertices exceed graph cap {graph_cap}")
            continue
        toks = line.split()
        if len(toks) != 2:
            raise FamilyFormatError(f"line {lineno}: expected 'u v'")
        try:
            edges.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise FamilyFormatError(f"line {lineno}: bad edge {line!r}")
    if m is None:
        raise FamilyFormatError("missing 'vertices=<m>' header")
    try:
        return graph_from_edges(m, edges)
    except GensetError as exc:
        raise FamilyFormatError(str(exc))
