"""Command-line surface: one subcommand per operation group, NDJSON/CSV output.

Exit status: 0 success, 1 a checked property fails, 2 usage or input error,
3 a cap or budget was exceeded, the printable range and memory included: a
value past the double range or Python's int-to-str digit limit is refused, as
is an allocation the system refuses. Each handler imports the layers it runs,
so a subcommand loads no other layer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

from . import __version__, errors
from .errors import CapExceeded, FamilyFormatError, GensetError
from . import families as fam_mod

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
# Most members construct writes: about 200 bytes each while the family is
# built, so under 1 GiB. (22,1) is the largest one-class family.
CONSTRUCT_CAP = 1 << 22


# fractions (which loads decimal and numbers) and csv are imported by the
# helpers that use them, so search-min and check load neither.
def _fraction(text: str) -> Fraction:
    from fractions import Fraction
    # argparse reports a ValueError as a usage error but lets ZeroDivisionError escape.
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


def _jsonable(value):
    """A Fraction as its rational and its float; one too large to print is refused (exit 3)."""
    from fractions import Fraction
    if isinstance(value, Fraction):
        try:
            return {"rational": f"{value.numerator}/{value.denominator}", "approx": float(value)}
        except (OverflowError, ValueError):  # past the double range, or the int-to-str digit limit
            raise CapExceeded("value too large to print") from None
    return value


def _bound_json(bound) -> dict:
    """A bounds.BoundValue: its rational when exact, else its float and precision."""
    from .bounds import PRECISION_BITS
    if bound.exact:
        return {**_jsonable(bound.value), "exact": True}
    # An mpf past the double range rounds to inf, which _emit refuses.
    return {"approx": float(bound.value), "exact": False, "precision_bits": PRECISION_BITS}


def _emit(record: dict, prefix: str = "") -> None:
    try:
        line = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError:  # an int past the int-to-str digit limit, or an infinite float
        raise CapExceeded("value too large to print") from None
    print(prefix + line)


def _read_family(path: str) -> fam_mod.SetFamily:
    with open(path) as fh:
        return fam_mod.parse_family(fh.read())


def _read_graph(args):
    from . import graphs
    with open(args.graph) as fh:
        return graphs.parse_graph(fh.read(), graph_cap=args.graph_cap)


def _write_graph(graph_mod, g, path, record: dict) -> None:
    """With a path, write g there in edge-list format and name the file in record."""
    if path:
        with open(path, "w") as fh:
            fh.write(graph_mod.format_graph(g))
        record["written"] = path


class _Parser(argparse.ArgumentParser):
    """A parser that takes each option only as spelt: no prefix of it. Subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genset",
        description="Exact tools for disjoint-union generators of the power set of [n].",
    )
    parser.add_argument("--no-meta", action="store_true", help="omit the timestamped meta record")
    parser.add_argument("--dp-cap", type=int, default=errors.DEFAULT_DP_CAP,
                        help="max n for the 2^n union table (k-generator and k-base checks)")
    parser.add_argument("--graph-cap", type=int, default=errors.DEFAULT_GRAPH_CAP,
                        help="max vertices for graph construction")
    parser.add_argument("--node-budget", type=int, default=errors.DEFAULT_NODE_BUDGET)
    parser.add_argument("--time-budget", type=float, default=errors.DEFAULT_TIME_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="canonical generator as a family file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", help="write the family file here instead of stdout")

    p = sub.add_parser("check", help="k-generator / k-base / decomposition checks")
    p.add_argument("--family", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--base", action="store_true", help="check the k-base property instead")
    p.add_argument("--decompose", metavar="SET",
                   help="also decompose this set ('1,3,4' or '-')")

    p = sub.add_parser("search-min", help="exact minimum k-generator size")
    p.add_argument("-n", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("--n-max", type=int,
                   help="with --k-max: sweep all k <= k-max, k <= n <= n-max (CSV)")
    p.add_argument("--k-max", type=int)

    p = sub.add_parser("graph", help="disjointness graph, clique counts and densities")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="build the disjointness graph of this family")
    src.add_argument("--graph", help="read an edge-list graph instead")
    p.add_argument("--count-cliques", type=int, metavar="R")
    p.add_argument("--density", type=int, metavar="R")
    p.add_argument("--emit", help="write the graph in edge-list format here")

    p = sub.add_parser("turan", help="Turán densities, blow-up graphs, Erdős maximization check")
    tsub = p.add_subparsers(dest="action", required=True)
    q = tsub.add_parser("eta")
    q.add_argument("-r", type=int, required=True)
    q.add_argument("-s", type=int, required=True)
    q = tsub.add_parser("graph")
    q.add_argument("-s", type=int, required=True)
    q.add_argument("-T", type=int, required=True)
    q.add_argument("--emit", help="write the graph in edge-list format here")
    q = tsub.add_parser("closed-form")
    q.add_argument("-s", type=int, required=True)
    q.add_argument("-T", type=int, required=True)
    q.add_argument("-r", type=int, required=True)
    q = tsub.add_parser("erdos-max")
    q.add_argument("-l", type=int, required=True)
    q.add_argument("-s", type=int, required=True)
    q.add_argument("-r", type=int, required=True)

    p = sub.add_parser("blowup", help="exact complete multipartite blow-up finder")
    p.add_argument("--graph", required=True)
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-t", type=int, required=True)

    p = sub.add_parser("bounds", help="counting bounds and probability bounds")
    bsub = p.add_subparsers(dest="action", required=True)
    q = bsub.add_parser("trivial")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-k", type=int, required=True)
    q = bsub.add_parser("lemma4")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-m", type=int, required=True)
    q.add_argument("-t", type=int, required=True)
    q.add_argument("--delta", type=_fraction)
    q = bsub.add_parser("union-check")
    q.add_argument("--family", required=True)
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-t", type=int, required=True)
    q.add_argument("--delta", type=_fraction)
    q.add_argument("--trials", type=int)
    q.add_argument("--seed", type=int)
    q = bsub.add_parser("coverage")
    q.add_argument("--family", required=True)
    q.add_argument("-k", type=int, required=True)
    q = bsub.add_parser("table")
    q.add_argument("--n-min", type=int, default=1)
    q.add_argument("--n-max", type=int, required=True)
    q.add_argument("--k-min", type=int, default=1)
    q.add_argument("--k-max", type=int, required=True)

    p = sub.add_parser("experiment", help="dense-subset and union-probability experiments")
    esub = p.add_subparsers(dest="action", required=True)
    q = esub.add_parser("dense-subset")
    q.add_argument("--graph", required=True)
    q.add_argument("-l", type=int, required=True)
    q.add_argument("-r", type=int, required=True)
    q.add_argument("--threshold", type=_fraction, required=True)
    q.add_argument("--sample", type=int)
    q.add_argument("--seed", type=int)
    q = esub.add_parser("union-prob")
    q.add_argument("--family", required=True)
    q.add_argument("-t", type=int, required=True)
    q.add_argument("--threshold", type=int, required=True)
    q.add_argument("--sample", type=int)
    q.add_argument("--seed", type=int)

    return parser


def _cmd_construct(args) -> int:
    size = fam_mod.canonical_size(args.n, args.k)
    if size > CONSTRUCT_CAP:
        raise CapExceeded(f"canonical({args.n},{args.k}) has {size} members,"
                          " above the construct cap 2^22")
    fam = fam_mod.canonical_generator(args.n, args.k)
    text = fam_mod.format_family(fam)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _emit({"written": args.output, "n": args.n, "k": args.k, "size": fam.m})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import generate as gen_mod
    if args.base and args.decompose is not None:
        # A witness is a disjoint split; plain check --decompose gives it.
        raise GensetError("--decompose cannot be used with --base")
    fam = _read_family(args.family)
    target = None if args.decompose is None else fam_mod._parse_set(args.decompose, fam.n)
    status = EXIT_OK
    layers = gen_mod.reachable_layers(fam, args.k, dp_cap=args.dp_cap, overlap=args.base)
    verdict = gen_mod.verdict_from_layers(layers)
    op = "is_k_base" if args.base else "is_k_generator"
    record = {"op": op, "k": args.k, "holds": verdict.holds}
    if not verdict.holds:
        record["counterexample"] = fam_mod.format_mask(verdict.counterexample)
        status = EXIT_PROPERTY_FAIL
    _emit(record)
    if target is not None:
        dec = gen_mod.decompose(fam, layers, target)
        rec = {"op": "decompose", "target": fam_mod.format_mask(target), "found": dec is not None}
        if dec is not None:
            rec["parts"] = [fam_mod.format_mask(p) for p in dec]
        else:
            status = EXIT_PROPERTY_FAIL
        _emit(rec)
    return status


def _csv(header: list, rows) -> None:
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _sweep_csv(reports, timed: bool) -> None:
    """One CSV row per case; the wall-clock `seconds` column only when timed.

    lower_bound is the bound proved on the minimum, on inconclusive rows too."""
    _csv(
        ["n", "k", "trivial_bound", "canonical_size", "minimum", "lower_bound",
         "conjecture_holds", "nodes"]
        + (["seconds"] if timed else []),
        ([
            r.n, r.k,
            fam_mod.trivial_lower_bound(r.n, r.k),
            fam_mod.canonical_size(r.n, r.k),
            r.minimum if r.minimum is not None else "inconclusive",
            r.lower_bound,
            r.conjecture_holds if r.conjecture_holds is not None else "unknown",
            r.nodes_explored,
        ] + ([f"{r.seconds:.3f}"] if timed else []) for r in reports),
    )


def _cmd_search_min(args) -> int:
    from . import search as search_mod
    if args.n_max is not None or args.k_max is not None:  # a sweep
        for flag, value in (("-n", args.n), ("-k", args.k)):
            if value is not None:
                raise GensetError(f"{flag} cannot be used with --n-max or --k-max")
        if args.n_max is None or args.k_max is None:
            raise GensetError("a sweep requires --n-max and --k-max")
        reports = search_mod.verify_conjecture_range(
            args.n_max, args.k_max, node_budget=args.node_budget, time_budget=args.time_budget
        )
        _sweep_csv(reports, timed=not args.no_meta)
        return EXIT_BUDGET if any(not r.conclusive for r in reports) else EXIT_OK
    if args.n is None or args.k is None:
        raise GensetError("single search requires -n and -k")
    report = search_mod.min_generator_size(
        args.n, args.k, node_budget=args.node_budget, time_budget=args.time_budget
    )
    record = {
        "n": report.n, "k": report.k, "minimum": report.minimum,
        "conjecture_holds": report.conjecture_holds, "conclusive": report.conclusive,
        "lower_bound": report.lower_bound, "upper_bound": report.upper_bound,
        "restriction_bound": report.restriction_bound, "nodes": report.nodes_explored,
        "canonical_size": fam_mod.canonical_size(report.n, report.k),
    }
    if report.witness is not None:
        record["witness"] = [fam_mod.format_mask(g) for g in report.witness.members]
    _emit(record)
    return EXIT_OK if report.conclusive else EXIT_BUDGET


def _cmd_graph(args) -> int:
    from . import graphs as graph_mod
    if args.family:
        fam = _read_family(args.family)
        g = graph_mod.disjointness_graph(fam, graph_cap=args.graph_cap)
    else:
        g = _read_graph(args)
    record = {"vertices": g.m, "edges": g.edge_count()}
    if args.count_cliques is not None:
        record[f"k{args.count_cliques}_count"] = graph_mod.count_cliques(g, args.count_cliques)
    if args.density is not None:
        known = record.get(f"k{args.density}_count")
        density = graph_mod.clique_density(g, args.density, count=known)
        record[f"k{args.density}_density"] = _jsonable(density)
    _write_graph(graph_mod, g, args.emit, record)
    _emit(record)
    return EXIT_OK


def _cmd_turan(args) -> int:
    from . import graphs as graph_mod
    if args.action == "eta":
        _emit({"eta": _jsonable(graph_mod.turan_eta(args.r, args.s)), "r": args.r, "s": args.s})
        return EXIT_OK
    if args.action == "graph":
        g = graph_mod.turan_blowup_graph(args.s, args.T, graph_cap=args.graph_cap)
        record = {"vertices": g.m, "edges": g.edge_count(), "s": args.s, "T": args.T}
        _write_graph(graph_mod, g, args.emit, record)
        _emit(record)
        return EXIT_OK
    if args.action == "closed-form":
        _emit({
            "count": graph_mod.turan_clique_closed_form(args.s, args.T, args.r),
            "s": args.s, "T": args.T, "r": args.r,
        })
        return EXIT_OK
    report = graph_mod.erdos_max_check(args.l, args.s, args.r)
    _emit({
        "l": report.l, "s": report.s, "r": report.r,
        "max_count": report.max_count, "turan_count": report.turan_count,
        "attained_by_turan": report.attained_by_turan,
        "graphs_enumerated": report.graphs_enumerated,
    })
    return EXIT_OK if report.attained_by_turan else EXIT_PROPERTY_FAIL


def _cmd_blowup(args) -> int:
    from . import graphs
    g = _read_graph(args)
    classes = graphs.find_blowup(g, args.a, args.t)
    record = {"a": args.a, "t": args.t, "found": classes is not None}
    if classes is not None:
        record["classes"] = [list(c) for c in classes]
    _emit(record)
    return EXIT_OK if classes is not None else EXIT_PROPERTY_FAIL


def _cmd_bounds(args) -> int:
    if args.action == "trivial":
        _emit({"n": args.n, "k": args.k, "trivial_bound": fam_mod.trivial_lower_bound(args.n, args.k)})
        return EXIT_OK
    from . import bounds as bounds_mod
    if args.action == "lemma4":
        delta = bounds_mod.resolve_delta(args.n, args.k, args.m, args.delta)
        value = bounds_mod.lemma4_bound(args.n, args.k, args.m, args.t, delta)
        _emit({
            "n": args.n, "k": args.k, "m": args.m, "t": args.t,
            "delta": _bound_json(delta),
            "bound": _bound_json(value),
        })
        return EXIT_OK
    if args.action == "union-check":
        fam = _read_family(args.family)
        report = bounds_mod.union_bound_check(
            fam, args.k, delta=args.delta, t=args.t, seed=args.seed, trials=args.trials
        )
        prob = report.probability
        _emit({
            "n": fam.n, "k": args.k, "m": fam.m, "t": args.t,
            "threshold": report.threshold,
            "probability": _jsonable(prob.value) if prob.exact else {
                "approx": prob.value, "trials": prob.total, "std_error": prob.std_error,
            },
            "analytic_bound": _bound_json(report.analytic),
            "in_regime": report.in_regime,
            "bound_holds": report.bound_holds,
        })
        return EXIT_OK if report.bound_holds or not report.in_regime else EXIT_PROPERTY_FAIL
    if args.action == "coverage":
        from . import generate as gen_mod
        fam = _read_family(args.family)
        verdict = gen_mod.is_k_generator(fam, args.k, dp_cap=args.dp_cap)
        report = bounds_mod.coverage_inequality_check(fam, args.k, graph_cap=args.graph_cap)
        _emit({
            "k": args.k, "tuples": report.tuples, "two_to_n": report.two_to_n,
            "holds": report.holds, "verified_generator": verdict.holds,
        })
        return EXIT_OK if report.holds or not verdict.holds else EXIT_PROPERTY_FAIL
    # Rows need 1 <= k <= n: n starts at the first k, and no n is walked without a k.
    k_range = range(max(args.k_min, 1), args.k_max + 1)
    n_range = range(max(args.n_min, k_range.start), args.n_max + 1 if k_range else 0)
    rows = bounds_mod.bound_table(n_range, k_range)
    _csv(
        ["n", "k", "trivial_bound", "weak_constant_bound", "strong_constant_bound", "canonical_size"],
        ([
            row.n, row.k, row.trivial_bound,
            f"{row.weak_constant_bound:.6g}", f"{row.strong_constant_bound:.6g}",
            row.canonical_size,
        ] for row in rows),
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.action == "dense-subset":
        from . import graphs
        g = _read_graph(args)
        result = graphs.dense_subset_fraction(
            g, args.l, args.r, args.threshold, sample=args.sample, seed=args.seed
        )
        _emit({
            "l": args.l, "r": args.r,
            "threshold": _jsonable(args.threshold),
            "fraction": _jsonable(result.value),
            "exact": result.exact,
            "subsets": result.total,
        })
        return EXIT_OK
    from . import bounds as bounds_mod
    fam = _read_family(args.family)
    est = bounds_mod.small_union_probability(
        fam, args.t, args.threshold, seed=args.seed, trials=args.sample
    )
    record = {"t": args.t, "threshold": args.threshold, "exact": est.exact,
              "probability": _jsonable(est.value)}
    if not est.exact:
        record.update({"trials": est.total, "std_error": est.std_error})
    _emit(record)
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "search-min": _cmd_search_min,
    "graph": _cmd_graph,
    "turan": _cmd_turan,
    "blowup": _cmd_blowup,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.no_meta:
            # A family written to stdout stays a family file: its meta record is a comment.
            family_out = args.command == "construct" and not args.output
            _emit({"meta": {"tool": "genset", "version": __version__, "timestamp": time.time()}},
                  "# " if family_out else "")
        return _COMMANDS[args.command](args)
    except FamilyFormatError as exc:
        print(f"genset: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"genset: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("genset: budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except GensetError as exc:
        print(f"genset: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"genset: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
