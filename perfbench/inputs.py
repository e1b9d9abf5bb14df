"""The input files of each workload, and the set-up process that writes them.

    python3 perfbench/inputs.py WORKLOAD SEED DIR [TRACE_OUT]

imports genset and writes the workload's family files into DIR, the way a
user prepares inputs with the library. The benchmark times this process as
its set-up. With TRACE_OUT the genset calls are traced and their spans are
written there.

The member lists are made here, without genset, so that the checks can use
them as they are; only the canonical generators come from genset itself, and
the benchmark compares each against its own construction (oracle.py).
"""

from __future__ import annotations

import itertools
import random
import sys

import oracle

RANDOM_N = 20
RANDOM_EXTRA = 1500

# file name -> (n, k) of a canonical generator, or the name of a member-list maker.
FILES = {
    "check-wide": {
        "canon22_2.txt": (22, 2),
        "canon24_3.txt": (24, 3),
        "canon24_4.txt": (24, 4),
        "canon18_2.txt": (18, 2),
        "random20.txt": "random",
    },
    "search-certify": {},
    "kneser-bounds": {
        "power10.txt": "power10",
        "kneser16_3.txt": "kneser16_3",
        "canon12_2.txt": (12, 2),
    },
}


def random_family(seed: int) -> list[int]:
    """A seeded non-2-generator of P[20] whose smallest uncovered mask is a 5-set inside [9].

    Members: every 1- and 2-subset of [20]; every 3- and 4-subset of [9] except
    those inside the hole, a random 5-subset of [9]; and RANDOM_EXTRA random
    sets of 6 to 14 elements, which are too large to lie inside the hole. The
    hole then splits into no two members, while every smaller mask lies in
    [9] and does. The checks confirm both facts by enumerating submasks of
    masks below 2^9, so they stay cheap.
    """
    rng = random.Random(seed)
    hole = oracle.mask(rng.sample(range(1, 10), 5))
    members = {oracle.mask(c) for r in (1, 2) for c in itertools.combinations(range(1, RANDOM_N + 1), r)}
    members |= {
        m for r in (3, 4) for c in itertools.combinations(range(1, 10), r)
        if (m := oracle.mask(c)) & ~hole
    }
    for _ in range(RANDOM_EXTRA):
        members.add(oracle.mask(rng.sample(range(1, RANDOM_N + 1), rng.randint(6, 14))))
    return sorted(members)


def power10() -> list[int]:
    """P[10] without the empty set: its disjointness graph counts Stirling numbers."""
    return list(range(1, 1 << 10))


def kneser16_3() -> list[int]:
    """All 3-subsets of [16]: the disjointness graph is the Kneser graph KG(16, 3)."""
    return [oracle.mask(c) for c in itertools.combinations(range(1, 17), 3)]


def members(spec, seed: int) -> tuple[int, list[int]]:
    """(n, members) of a non-canonical input file."""
    if spec == "random":
        return RANDOM_N, random_family(seed)
    if spec == "power10":
        return 10, power10()
    return 16, kneser16_3()


def write_inputs(workload: str, seed: int, out_dir: str) -> None:
    from genset import families  # through the module, so that tracing sees the calls

    for name, spec in FILES[workload].items():
        if isinstance(spec, tuple):
            fam = families.canonical_generator(*spec)
        else:
            fam = families.make_family(*members(spec, seed))
        with open(f"{out_dir}/{name}", "w") as fh:
            fh.write(families.format_family(fam))


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    if len(argv) < 4:
        write_inputs(workload, seed, out_dir)
        return 0
    import tracer

    t = tracer.Tracer()
    t.install()
    t.span("setup", write_inputs, workload, seed, out_dir)
    t.dump(argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
