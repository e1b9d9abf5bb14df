import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from genset import (
    canonical_generator, cli, errors, families, format_family, generate, graphs, search,
)
from genset.graphs import (
    Graph, format_graph, graph_from_edges, turan_blowup_graph, turan_clique_closed_form,
)


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    return subprocess.run(
        [sys.executable, "-m", "genset", *args],
        capture_output=True, text=True, env=env, **kwargs,
    )


@pytest.fixture
def fam42(tmp_path):
    path = tmp_path / "fam42.txt"
    path.write_text(format_family(canonical_generator(4, 2)))
    return str(path)


@pytest.fixture
def bad_family(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=2\n1\n1,2\n")  # {2} is not generable
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, fam42):
        assert run_cli("--no-meta", "check", "--family", fam42, "-k", "2").returncode == 0

    def test_property_fail_is_one(self, bad_family):
        proc = run_cli("--no-meta", "check", "--family", bad_family, "-k", "2")
        assert proc.returncode == 1
        record = json.loads(proc.stdout.splitlines()[0])
        assert record["holds"] is False and record["counterexample"] == "2"

    def test_usage_error_is_two(self):
        assert run_cli("check", "-k", "2").returncode == 2
        assert run_cli("no-such-command").returncode == 2

    def test_malformed_family_is_two(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a family\n")
        assert run_cli("--no-meta", "check", "--family", str(path), "-k", "2").returncode == 2

    def test_budget_exceeded_is_three(self, fam42):
        proc = run_cli("--no-meta", "--graph-cap", "2", "graph", "--family", fam42)
        assert proc.returncode == 3

    def test_missing_seed_for_sampling_is_two(self, fam42):
        proc = run_cli(
            "--no-meta", "experiment", "union-prob", "--family", fam42,
            "-t", "2", "--threshold", "2", "--sample", "100",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "files,args",
        [
            ({"cfg": "dp_cap=abc\n"}, ("--config", "{cfg}", "check", "--family", "{fam}", "-k", "2")),
            ({"cfg": "threads=2\n"}, ("--config", "{cfg}", "check", "--family", "{fam}", "-k", "2")),
            ({"g": "vertices=x\n"}, ("graph", "--graph", "{g}")),
            ({"g": "vertices=3\n0 a\n"}, ("graph", "--graph", "{g}")),
            ({}, ("check", "--family", "{fam}", "-k", "2", "--decompose", "1,a")),
            ({}, ("check", "--family", "{fam}", "-k", "2", "--decompose", "9")),
            ({}, ("check", "--family", "{fam}", "-k", "2", "--decompose", "3,1")),
            ({}, ("check", "--family", "{fam}", "-k", "2", "--decompose", "1,1")),
            ({"fam": b"n=2\n\xff\n"}, ("check", "--family", "{fam}", "-k", "2")),
            ({"g": "vertices=4\n0 1\n"}, ("experiment", "dense-subset", "--graph", "{g}",
                                          "-l", "2", "-r", "2", "--threshold", "1/2",
                                          "--sample", "0", "--seed", "1")),
            ({"g": "vertices=4\n0 1\n"}, ("experiment", "dense-subset", "--graph", "{g}",
                                          "-l", "2", "-r", "2", "--threshold", "1/2",
                                          "--sample", "-3", "--seed", "1")),
            ({"g": "vertices=4\n0 1\n"}, ("experiment", "dense-subset", "--graph", "{g}",
                                          "-l", "2", "-r", "2", "--threshold", "1/0")),
            ({"g": "vertices=4\n0 1\n"}, ("experiment", "dense-subset", "--graph", "{g}",
                                          "-l", "-1", "-r", "-1", "--threshold", "1/2",
                                          "--sample", "5", "--seed", "1")),
            ({}, ("experiment", "union-prob", "--family", "{fam}", "-t", "2",
                  "--threshold", "2", "--sample", "0", "--seed", "1")),
            ({}, ("experiment", "union-prob", "--family", "{fam}", "-t", "2",
                  "--threshold", "2", "--sample", "-2", "--seed", "1")),
            ({}, ("bounds", "union-check", "--family", "{fam}", "-k", "2", "-t", "2",
                  "--trials", "0", "--seed", "1")),
            ({}, ("bounds", "union-check", "--family", "{fam}", "-k", "2", "-t", "2",
                  "--trials", "-2", "--seed", "1")),
            ({}, ("bounds", "union-check", "--family", "{fam}", "-k", "2", "-t", "2",
                  "--delta", "1/0")),
            ({}, ("bounds", "lemma4", "-n", "10", "-k", "2", "-m", "32", "-t", "3",
                  "--delta", "1/0")),
            ({}, ("turan", "erdos-max", "-l", "-1", "-s", "2", "-r", "2")),
            ({}, ("turan", "closed-form", "-s", "2", "-T", "-1", "-r", "1")),
            ({}, ("--time-budget", "nan", "search-min", "-n", "3", "-k", "2")),
            ({}, ("--time-budget", "nan", "search-min", "--sweep", "--n-max", "3", "--k-max", "2")),
            ({"cfg": "time_budget=nan\n"}, ("--config", "{cfg}", "search-min", "-n", "3", "-k", "2")),
            ({}, ("check", "--family", "{fam}", "-k", "2", "--base", "--decompose", "1,3")),
        ],
        ids=["config-value", "threads-key", "graph-header", "graph-edge",
             "decompose-token", "decompose-range", "decompose-descending",
             "decompose-repeated", "family-bytes",
             "dense-sample-zero", "dense-sample-negative", "dense-threshold-zero-denominator",
             "dense-negative-r",
             "union-prob-sample-zero", "union-prob-sample-negative",
             "union-check-trials-zero", "union-check-trials-negative",
             "union-check-delta-zero-denominator", "lemma4-delta-zero-denominator",
             "erdos-max-negative-l", "closed-form-negative-T", "time-budget-nan",
             "sweep-time-budget-nan", "config-time-budget-nan", "base-decompose"],
    )
    def test_bad_input_is_two_with_nothing_on_stdout(self, tmp_path, fam42, files, args):
        paths = {"fam": fam42}
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
            paths[name] = str(path)
        # Each input is refused before any DP table is built: building one exits 1.
        no_table = (
            "import sys; from genset import cli, generate; "
            "generate.reachable_layers = lambda *a, **kw: sys.exit('built a table'); "
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", no_table, "--no-meta", *(a.format(**paths) for a in args)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "header,args,code",
        [
            ("vertices=-3", (), 2),
            ("vertices=10000000", (), 3),
            ("vertices=6", ("--graph-cap", "5"), 3),
        ],
        ids=["negative", "above-default-cap", "above-graph-cap-flag"],
    )
    def test_graph_vertex_count_is_checked_before_allocation(self, tmp_path, header, args, code):
        path = tmp_path / "g.txt"
        path.write_text(header + "\n")
        proc = run_cli("--no-meta", *args, "graph", "--graph", str(path))
        assert (proc.returncode, proc.stdout) == (code, "")
        assert "Traceback" not in proc.stderr

    def test_deep_clique_count_is_three(self, tmp_path):
        # A 1049-deep walk would pass the recursion limit; the budget refuses it first.
        m = 1100
        path = tmp_path / "k1100.txt"
        path.write_text(format_graph(Graph(tuple(((1 << m) - 1) ^ (1 << v) for v in range(m)))))
        proc = run_cli("--no-meta", "graph", "--graph", str(path), "--count-cliques", "1050",
                       timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args", [("-n", "40", "-k", "2"), ("--sweep", "--n-max", "40", "--k-max", "2")],
        ids=["single", "sweep"],
    )
    def test_search_above_cap_is_three(self, args):
        # Without the cap, n = 40 would list all 2^40 - 1 masks before any budget is read.
        proc = run_cli("--no-meta", "search-min", *args, timeout=5)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "Traceback" not in proc.stderr


class TestConstruct:
    def test_construct_4_2(self):
        proc = run_cli("--no-meta", "construct", "-n", "4", "-k", "2")
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        assert lines[0] == "n=4" and len(lines) - 1 == 6

    def test_construct_check_round_trip(self, tmp_path):
        out = tmp_path / "f.txt"
        run_cli("--no-meta", "construct", "-n", "6", "-k", "2", "-o", str(out))
        proc = run_cli("--no-meta", "check", "--family", str(out), "-k", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["holds"] is True

    def test_construct_stdout_with_meta_feeds_check(self, tmp_path):
        # The meta record of a family on stdout is a '#' comment line.
        out = tmp_path / "f.txt"
        made = run_cli("construct", "-n", "4", "-k", "2")
        first, *family = made.stdout.splitlines()
        assert made.returncode == 0 and first.startswith("# ")
        assert json.loads(first[2:])["meta"]["tool"] == "genset"
        assert family[0] == "n=4" and len(family) - 1 == 6
        out.write_text(made.stdout)
        proc = run_cli("check", "--family", str(out), "-k", "2")
        meta, verdict = proc.stdout.splitlines()
        assert proc.returncode == 0 and "meta" in json.loads(meta)
        assert json.loads(verdict) == {"holds": True, "k": 2, "op": "is_k_generator"}

    def test_construct_above_cap_is_three(self):
        # 2^40 - 1 members would exhaust memory long before the timeout.
        proc = run_cli("--no-meta", "construct", "-n", "40", "-k", "1", timeout=5)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("dp_cap", ["10", "28", "62"])
    def test_construct_cap_ignores_dp_cap(self, capsys, monkeypatch, dp_cap):
        # At most 2^22 members whatever --dp-cap says: (22,1) has 2^22 - 1 and
        # fits, (23,1) does not. The cap is read before anything is built.
        assert families.canonical_size(22, 1) == cli.CONSTRUCT_CAP - 1
        assert cli.main(["--no-meta", "--dp-cap", dp_cap, "construct", "-n", "7", "-k", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 127
        monkeypatch.setattr(families, "canonical_generator", lambda n, k: pytest.fail("built"))
        for n in (23, 40):
            assert cli.main(["--no-meta", "--dp-cap", dp_cap, "construct", "-n", str(n), "-k", "1"]) == 3
            out, err = capsys.readouterr()
            assert out == "" and "2^22" in err


class TestCheck:
    def test_decompose_output(self, fam42):
        proc = run_cli(
            "--no-meta", "check", "--family", fam42, "-k", "2", "--decompose", "1,3,4"
        )
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        dec = records[1]
        assert dec["found"] and sorted(dec["parts"]) == ["1", "3,4"]

    @pytest.mark.parametrize(
        "extra,overlap", [(("--decompose", "1,3,4"), False), (("--base",), True)],
        ids=["decompose", "base"],
    )
    def test_decompose_builds_the_table_once(self, fam42, monkeypatch, capsys, extra, overlap):
        calls = []
        build = generate.reachable_layers
        monkeypatch.setattr(
            generate, "reachable_layers", lambda *a, **kw: calls.append(kw) or build(*a, **kw)
        )
        assert cli.main(["--no-meta", "check", "--family", fam42, "-k", "2", *extra]) == 0
        assert [kw.get("overlap", False) for kw in calls] == [overlap]
        verdict, *dec = map(json.loads, capsys.readouterr().out.splitlines())
        assert verdict["holds"] and verdict["op"] == ("is_k_base" if overlap else "is_k_generator")
        assert [sorted(d["parts"]) for d in dec] == ([] if overlap else [["1", "3,4"]])

    def test_base_check(self, tmp_path):
        path = tmp_path / "overlap.txt"
        path.write_text("n=3\n1,2\n2,3\n")
        proc = run_cli("--no-meta", "check", "--family", str(path), "-k", "2", "--base")
        assert proc.returncode == 1
        record = json.loads(proc.stdout)
        assert record["op"] == "is_k_base" and record["counterexample"] == "1"

    @pytest.mark.parametrize(
        "family,code", [("n=3\n1,2\n2,3\n", 1), ("n=3\n1\n2\n3\n1,2\n2,3\n", 0)],
        ids=["not-base", "base"],
    )
    def test_base_check_runs_without_numpy(self, tmp_path, family, code):
        # The k-base table is the generator table; no numpy import is left.
        path = tmp_path / "f.txt"
        path.write_text(family)
        script = (
            "import sys; sys.modules['numpy'] = None; from genset import cli; "
            f"sys.exit(cli.main(['--no-meta', 'check', '--family', {str(path)!r}, '-k', '2', '--base']))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert json.loads(proc.stdout)["holds"] is (code == 0)

    @pytest.mark.parametrize(
        "family,extra",
        [
            ("n=3\n1\n2\n3\n", ("--decompose", "1,3")),
            ("n=3\n1\n2,3\n", ("--decompose", "1,3")),
            ("n=3\n1,2\n2,3\n3\n", ("--base",)),
        ],
        ids=["generator", "not-generator", "base"],
    )
    def test_huge_k_answers_like_k_equal_to_n(self, tmp_path, family, extra):
        # No union of nonempty members needs more than n of them, so any k >= n
        # gives the same verdict; a huge k must not cost k rounds or layers,
        # which would take hours (the timeout raises).
        path = tmp_path / "f.txt"
        path.write_text(family)
        args = ("--no-meta", "check", "--family", str(path), *extra)
        small = run_cli(*args, "-k", "3")
        huge = run_cli(*args, "-k", "1000000000", timeout=5)
        assert huge.returncode == small.returncode
        small_records = [json.loads(line) for line in small.stdout.splitlines()]
        huge_records = [json.loads(line) for line in huge.stdout.splitlines()]
        assert huge_records[0].pop("k") == 1000000000 and small_records[0].pop("k") == 3
        assert huge_records == small_records


class TestSearchMin:
    def test_single(self):
        proc = run_cli("--no-meta", "search-min", "-n", "4", "-k", "2")
        record = json.loads(proc.stdout)
        assert record["minimum"] == 6 and record["conjecture_holds"] is True

    def test_sweep_csv(self):
        proc = run_cli("--no-meta", "search-min", "--sweep", "--n-max", "4", "--k-max", "2")
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("n,k,trivial_bound,canonical_size,minimum")
        assert len(lines) == 1 + 4 + 3

    def test_sweep_times_cases_only_with_meta(self, capsys):
        # Wall-clock seconds would break byte-identical --no-meta reruns.
        args = ["search-min", "--sweep", "--n-max", "3", "--k-max", "2"]
        assert cli.main(["--no-meta", *args]) == 0
        assert capsys.readouterr().out.splitlines()[0].split(",")[-1] == "nodes"
        assert cli.main(args) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == "seconds"


class TestGraphAndTuran:
    def test_graph_stats(self, fam42):
        proc = run_cli("--no-meta", "graph", "--family", fam42, "--count-cliques", "2", "--density", "2")
        record = json.loads(proc.stdout)
        assert record["vertices"] == 6 and record["edges"] == 11
        assert record["k2_density"]["rational"] == "11/15"

    def test_count_and_density_share_one_clique_walk(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "t43.txt"
        path.write_text(format_graph(turan_blowup_graph(4, 3)))
        calls = []
        walk = graphs._clique_profile
        monkeypatch.setattr(graphs, "_clique_profile", lambda *a: calls.append(a) or walk(*a))
        args = ["--no-meta", "graph", "--graph", str(path), "--count-cliques", "3",
                "--density", "3"]
        assert cli.main(args) == 0 and len(calls) == 1
        record = json.loads(capsys.readouterr().out)
        count = turan_clique_closed_form(4, 3, 3)
        assert record["k3_count"] == count
        assert Fraction(record["k3_density"]["rational"]) == Fraction(count, comb(12, 3))

    def test_graph_file_input(self, tmp_path):
        path = tmp_path / "c5.txt"
        c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        path.write_text(format_graph(c5))
        proc = run_cli("--no-meta", "graph", "--graph", str(path))
        assert json.loads(proc.stdout) == {"vertices": 5, "edges": 5}

    def test_turan_eta(self):
        proc = run_cli("--no-meta", "turan", "eta", "-r", "3", "-s", "3")
        assert json.loads(proc.stdout)["eta"]["rational"] == "2/9"

    def test_turan_closed_form(self):
        proc = run_cli("--no-meta", "turan", "closed-form", "-s", "3", "-T", "2", "-r", "2")
        assert json.loads(proc.stdout)["count"] == 12

    def test_erdos_max(self):
        proc = run_cli("--no-meta", "turan", "erdos-max", "-l", "5", "-s", "2", "-r", "2")
        record = json.loads(proc.stdout)
        assert record["max_count"] == 6 and record["attained_by_turan"]
        assert proc.returncode == 0

    def test_blowup(self, tmp_path):
        path = tmp_path / "t32.txt"
        path.write_text(format_graph(turan_blowup_graph(3, 2)))
        proc = run_cli("--no-meta", "blowup", "--graph", str(path), "-a", "3", "-t", "2")
        assert proc.returncode == 0 and json.loads(proc.stdout)["found"]
        proc = run_cli("--no-meta", "blowup", "--graph", str(path), "-a", "4", "-t", "2")
        assert proc.returncode == 1 and not json.loads(proc.stdout)["found"]


class TestBoundsCommands:
    def test_trivial(self):
        proc = run_cli("--no-meta", "bounds", "trivial", "-n", "3", "-k", "2")
        assert json.loads(proc.stdout)["trivial_bound"] == 4

    def test_lemma4(self):
        proc = run_cli(
            "--no-meta", "bounds", "lemma4", "-n", "10", "-k", "2", "-m", "32", "-t", "3"
        )
        record = json.loads(proc.stdout)
        assert record["bound"]["rational"] == "1952382976000/1"

    def test_coverage(self, fam42):
        proc = run_cli("--no-meta", "bounds", "coverage", "--family", fam42, "-k", "2")
        record = json.loads(proc.stdout)
        assert record["holds"] and record["tuples"] >= 16

    def test_table_csv(self):
        proc = run_cli("--no-meta", "bounds", "table", "--n-max", "4", "--k-max", "2")
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("n,k,")
        assert any(line.startswith("4,2,5,") for line in lines)

    def test_union_check(self, tmp_path):
        fam = canonical_generator(9, 2)
        from genset import make_family

        path = tmp_path / "f932.txt"
        path.write_text(format_family(make_family(9, fam.members[:32])))
        proc = run_cli(
            "--no-meta", "bounds", "union-check", "--family", str(path), "-k", "2", "-t", "3"
        )
        record = json.loads(proc.stdout)
        assert record["in_regime"] and record["bound_holds"]

    def test_union_check_analytic_bound_exact_when_exponent_integral(self, fam42):
        # k + 1 = 3 does not divide n = 4, but n t / (k + 1) = 4 does not need it to.
        proc = run_cli("--no-meta", "bounds", "union-check", "--family", fam42, "-k", "2", "-t", "3")
        assert proc.returncode == 0
        assert ('"analytic_bound": {"approx": 1.1851851851851851, "exact": true, "rational": "32/27"}'
                in proc.stdout)


class TestValuesTooLargeToPrint:
    """A value past the double range or the int-to-str digit limit exits 3, unprinted."""

    @pytest.fixture
    def fam40(self, tmp_path):
        # 40 singletons over [62]: with k = 1, t = 40 the union bound is about 2^1089.
        path = tmp_path / "fam40.txt"
        path.write_text(format_family(families.make_family(62, [1 << i for i in range(40)])))
        return str(path)

    @pytest.mark.parametrize(
        "args",
        [
            ("bounds", "lemma4", "-n", "2000", "-k", "1", "-m", "2", "-t", "1", "--delta", "1/4"),
            ("bounds", "lemma4", "-n", "20", "-k", "2", "-m", "2000", "-t", "400"),
            ("bounds", "union-check", "--family", "FAM", "-k", "1", "-t", "40"),
            ("bounds", "union-check", "--family", "FAM", "-k", "1", "-t", "40",
             "--trials", "10", "--seed", "1"),
            # 2^15000 has 4516 digits; 3000!/3000^3000 is a float (0.0) but has more.
            ("bounds", "lemma4", "-n", "20000", "-k", "1", "-m", "2", "-t", "1", "--delta", "1/4"),
            ("turan", "eta", "-r", "3000", "-s", "3000"),
            # C(3000, 3000) 3000^3000 has 10432 digits.
            ("turan", "closed-form", "-s", "3000", "-T", "3000", "-r", "3000"),
        ],
        ids=["lemma4-exact", "lemma4-inexact", "union-check-exact", "union-check-sampled",
             "lemma4-digits", "eta-digits", "closed-form-digits"],
    )
    def test_refused_with_nothing_on_stdout(self, capsys, fam40, args):
        status = cli.main(["--no-meta", *(fam40 if a == "FAM" else a for a in args)])
        out, err = capsys.readouterr()
        assert (status, out) == (3, "") and err.startswith("genset: budget exceeded: ")


class TestLemma4Records:
    """Inexact `bounds lemma4` records, pinned byte for byte as they were printed
    when the bound was built from the exact C(m, t)^(k+1) and (k+1)!."""

    @pytest.mark.parametrize("args,bound,delta", [
        # delta derived from an m that is no power of two
        ("-n 8 -k 4 -m 1023 -t 3", 4.947102488954976e+34, 1.049823803718166),
        ("-n 8 -k 7 -m 65537 -t 3", 3.38647656691481e+94, 1.87500275170142),
        ("-n 1 -k 271 -m 7 -t 1", 1.167143377e-314, 2.8036784514693687),  # subnormal
        ("-n 10 -k 271830 -m 100001 -t 1", 1.9294184368125347, 1.6609618113752225),
        # an exact delta, and a fractional exponent n (1 - delta t)
        ("-n 5 -k 50 -m 32 -t 5", 1.4069612973849598e+200, "50/51"),
        ("-n 2 -k 10 -m 7 -t 1 --delta 1/3", 1373.0575319806933, "1/3"),
        ("-n 1 -k 50 -m 2 -t 2 --delta 1/4", 4.649862657399318e-65, "1/4"),
        ("-n 8 -k 3 -m 100 -t 17 --delta 2/7", 1.6758879673907137e+65, "2/7"),
        ("-n 1 -k 272 -m 7 -t 1 --delta 1/3", 1.664567175e-315, "1/3"),  # subnormal
    ])
    def test_pinned(self, capsys, args, bound, delta):
        argv = args.split()
        assert cli.main(["--no-meta", "bounds", "lemma4", *argv]) == 0
        inexact = {"exact": False, "precision_bits": 113}
        record = {"n": int(argv[1]), "k": int(argv[3]), "m": int(argv[5]), "t": int(argv[7])}
        record["bound"] = {"approx": bound, **inexact}
        record["delta"] = (
            {"approx": float(Fraction(delta)), "exact": True, "rational": delta}
            if isinstance(delta, str) else {"approx": delta, **inexact}
        )
        assert capsys.readouterr().out == json.dumps(record, sort_keys=True) + "\n"


class TestAnsweredInUnderASecond:
    """Each of these once ran for seconds or minutes, most of them building a huge integer."""

    @pytest.fixture
    def k32(self, tmp_path):
        path = tmp_path / "k32_32.txt"
        path.write_text(format_graph(turan_blowup_graph(2, 32)))
        return str(path)

    @pytest.mark.parametrize("args,status", [
        ("bounds lemma4 -n 10 -k 1 -m 100000000 -t 10000000 --delta 1/4", 3),
        ("turan closed-form -s 1000000 -T 1000000000 -r 1000000", 3),
        ("turan closed-form -s 3000000 -T 1000000000 -r 3000000", 3),
        ("turan eta -r 100000 -s 100000", 3),
        ("turan eta -r 1000000 -s 1000000", 3),
        ("turan eta -r 100000 -s 10000000000", 3),
        ("turan eta -r 30000 -s 1000000000", 3),
        ("bounds lemma4 -n 10 -k 271830 -m 100001 -t 1", 0),
        ("bounds lemma4 -n 10 -k 1 -m 100000001 -t 10000000", 0),
        ("bounds lemma4 -n 1000000 -k 1 -m 1000000 -t 500000 --delta 1/250000", 3),
        ("bounds lemma4 -n 26500 -k 2700000 -m 1000000 -t 1 --delta 2", 3),
        ("blowup --graph K32 -a 3 -t 3", 3),
        ("blowup --graph K32 -a 3 -t 4", 3),
        ("blowup --graph K32 -a 3 -t 16", 3),
    ])
    def test_answered_or_refused(self, capsys, k32, args, status):
        start = time.perf_counter()
        assert cli.main(["--no-meta", *(k32 if a == "K32" else a for a in args.split())]) == status
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        if status == 3:
            assert out == "" and err.startswith("genset: budget exceeded: ")
        else:
            assert json.loads(out)["bound"]["exact"] is False


class TestRangesWalkOnlyTheirCases:
    """Each of these once walked every (n, k) of its range, k > n or n < 1 too, for seconds."""

    @pytest.mark.parametrize("args,small", [
        ("search-min --sweep --n-max 3 --k-max 100000000", "search-min --sweep --n-max 3 --k-max 3"),
        ("bounds table --n-max 3 --k-max 100000000", "bounds table --n-max 3 --k-max 3"),
        ("bounds table --n-min -30000000 --n-max 3 --k-max 3",
         "bounds table --n-min 1 --n-max 3 --k-max 3"),
        ("bounds table --n-max 100000000 --k-min 5 --k-max 3",
         "bounds table --n-max 3 --k-min 5 --k-max 3"),
    ])
    def test_same_output_as_the_small_range(self, capsys, args, small):
        assert cli.main(["--no-meta", *small.split()]) == 0
        want = capsys.readouterr()
        start = time.perf_counter()
        assert cli.main(["--no-meta", *args.split()]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == want


class TestExperiment:
    def test_union_prob_exact(self, fam42):
        proc = run_cli(
            "--no-meta", "experiment", "union-prob", "--family", fam42,
            "-t", "2", "--threshold", "2",
        )
        assert json.loads(proc.stdout)["probability"]["rational"] == "2/3"

    def test_dense_subset_exact(self, tmp_path):
        path = tmp_path / "t32.txt"
        path.write_text(format_graph(turan_blowup_graph(3, 2)))
        proc = run_cli(
            "--no-meta", "experiment", "dense-subset", "--graph", str(path),
            "-l", "4", "-r", "2", "--threshold", "1/2",
        )
        record = json.loads(proc.stdout)
        assert record["exact"] and record["subsets"] == 15


class TestEmit:
    def test_turan_graph_round_trips_through_graph_and_blowup(self, tmp_path, capsys):
        path = str(tmp_path / "t32.txt")
        assert cli.main(["--no-meta", "turan", "graph", "-s", "3", "-T", "2", "--emit", path]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "vertices": 6, "edges": 12, "s": 3, "T": 2, "written": path,
        }
        assert cli.main(["--no-meta", "graph", "--graph", path, "--count-cliques", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"vertices": 6, "edges": 12, "k3_count": 8}
        assert cli.main(["--no-meta", "blowup", "--graph", path, "-a", "3", "-t", "2"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "a": 3, "t": 2, "found": True, "classes": [[0, 1], [2, 3], [4, 5]],
        }

    def test_disjointness_graph_round_trips(self, tmp_path, capsys, fam42):
        path = str(tmp_path / "g42.txt")
        assert cli.main(["--no-meta", "graph", "--family", fam42, "--emit", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"vertices": 6, "edges": 11, "written": path}
        fam = families.parse_family(Path(fam42).read_text())
        assert Path(path).read_text() == format_graph(graphs.disjointness_graph(fam))
        assert cli.main(["--no-meta", "graph", "--graph", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"vertices": 6, "edges": 11}


class TestUsageErrorsNamed:
    """Each exits 2 with nothing on stdout and its cause on stderr."""

    @pytest.fixture
    def paths(self, fam42, tmp_path):
        triangle, headless = tmp_path / "triangle.txt", tmp_path / "headless.txt"
        triangle.write_text("vertices=4\n0 1\n0 2\n1 2\n")
        headless.write_text("# no vertex count\n\n")
        return {"FAM": fam42, "TRIANGLE": str(triangle), "HEADLESS": str(headless)}

    @pytest.mark.parametrize("args,message", [
        ("search-min --sweep --k-max 2", "error: --sweep requires --n-max and --k-max"),
        ("search-min -k 2", "error: single search requires -n and -k"),
        ("search-min --sweep --n-max 3 --k-max 2 -n 3", "error: -n cannot be used with --sweep"),
        ("search-min --sweep --n-max 3 --k-max 2 -k 2", "error: -k cannot be used with --sweep"),
        ("search-min -n 3 -k 2 --n-max 4", "error: --n-max requires --sweep"),
        ("search-min -n 3 -k 2 --k-max 2", "error: --k-max requires --sweep"),
        ("graph --graph HEADLESS", "input error: missing 'vertices=<m>' header"),
        ("experiment dense-subset --graph TRIANGLE -l 5 -r 2 --threshold 1",
         "error: l=5 exceeds vertex count 4"),
        ("experiment dense-subset --graph TRIANGLE -l 2 -r 3 --threshold 1",
         "error: need l >= r, got l=2, r=3"),
        ("turan graph -s 0 -T 1", "error: need s >= 1 and T >= 1"),
        ("turan closed-form -s 2 -T 1 -r 3", "error: need 1 <= r <= s, got r=3, s=2"),
        ("experiment union-prob --family FAM -t 2 --threshold 99",
         "error: threshold must lie in 0..4"),
        ("bounds trivial -n 3 -k 4", "error: need 1 <= k <= n, got k=4, n=3"),
        ("check --family FAM -k -1", "error: k must be >= 0"),
    ])
    def test_exit_two_with_message(self, capsys, paths, args, message):
        assert cli.main(["--no-meta", *(paths.get(a, a) for a in args.split())]) == 2
        assert capsys.readouterr() == ("", f"genset: {message}\n")


class TestDeterminismAndConfig:
    @pytest.mark.parametrize(
        "args",
        [
            ("construct", "-n", "5", "-k", "2"),
            ("search-min", "--sweep", "--n-max", "4", "--k-max", "2"),
            ("turan", "erdos-max", "-l", "5", "-s", "2", "-r", "2"),
            ("bounds", "table", "--n-max", "6", "--k-max", "3"),
        ],
    )
    def test_byte_identical_reruns(self, args):
        a = run_cli("--no-meta", *args)
        b = run_cli("--no-meta", *args)
        assert a.stdout.encode() == b.stdout.encode()
        assert a.returncode == b.returncode

    def test_seeded_sampling_byte_identical(self, fam42):
        args = (
            "--no-meta", "experiment", "union-prob", "--family", fam42,
            "-t", "2", "--threshold", "2", "--sample", "5000", "--seed", "13",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_seeded_streams_are_pinned(self, tmp_path):
        # Records of the seeded sampling modes as first released: the same seed
        # must keep drawing the same subsets in the same order.
        c82, c122, t34 = (str(tmp_path / name) for name in ("c82.txt", "c122.txt", "t34.txt"))
        Path(c82).write_text(format_family(canonical_generator(8, 2)))
        Path(c122).write_text(format_family(canonical_generator(12, 2)))
        Path(t34).write_text(format_graph(turan_blowup_graph(3, 4)))
        half = {"approx": 0.5, "rational": "1/2"}
        cases = [
            (("experiment", "union-prob", "--family", c82, "-t", "3", "--threshold", "2",
              "--sample", "5000", "--seed", "7"),
             {"exact": False, "probability": 0.0024, "std_error": 0.000691988439209789,
              "t": 3, "threshold": 2, "trials": 5000}),
            (("experiment", "dense-subset", "--graph", t34, "-l", "5", "-r", "2",
              "--threshold", "1/2", "--sample", "300", "--seed", "3"),
             {"exact": False, "fraction": 0.9733333333333334, "l": 5, "r": 2,
              "subsets": 300, "threshold": half}),
            (("bounds", "union-check", "--family", c122, "-k", "2", "-t", "3",
              "--trials", "999", "--seed", "5"),
             {"analytic_bound": {"approx": 8.387031238127232, "exact": True,
                                 "rational": "2097152/250047"},
              "bound_holds": True, "in_regime": True, "k": 2, "m": 126, "n": 12,
              "probability": {"approx": 0.05405405405405406, "std_error": 0.007154257242444287,
                              "trials": 999},
              "t": 3, "threshold": 4}),
        ]
        for args, want in cases:
            proc = run_cli("--no-meta", *args)
            assert proc.returncode == 0 and json.loads(proc.stdout) == want, args

    def test_meta_record_present_by_default(self):
        proc = run_cli("bounds", "trivial", "-n", "3", "-k", "2")
        first = json.loads(proc.stdout.splitlines()[0])
        assert "meta" in first and "timestamp" in first["meta"]

    def test_config_file_overrides_caps(self, tmp_path, fam42):
        cfg = tmp_path / "caps.cfg"
        cfg.write_text("graph-cap=2\n")
        proc = run_cli("--no-meta", "--config", str(cfg), "graph", "--family", fam42)
        assert proc.returncode == 3

    def test_flag_beats_config(self, tmp_path, fam42):
        cfg = tmp_path / "caps.cfg"
        cfg.write_text("graph_cap=100\n")
        cap, config = ["--graph-cap", "2"], ["--config", str(cfg)]
        for flags in (cap + config, config + cap):
            proc = run_cli("--no-meta", *flags, "graph", "--family", fam42)
            assert (proc.returncode, proc.stdout) == (3, ""), flags

    def test_unknown_config_key_rejected(self, tmp_path, fam42):
        cfg = tmp_path / "caps.cfg"
        cfg.write_text("bogus=1\n")
        proc = run_cli("--no-meta", "--config", str(cfg), "graph", "--family", fam42)
        assert proc.returncode == 2


class TestCapDefaults:
    def test_parser_defaults_are_the_module_constants(self):
        args = cli.build_parser().parse_args(["construct", "-n", "1", "-k", "1"])
        assert args.dp_cap == errors.DEFAULT_DP_CAP == generate.DEFAULT_DP_CAP
        assert args.graph_cap == errors.DEFAULT_GRAPH_CAP == graphs.DEFAULT_GRAPH_CAP
        assert args.node_budget == errors.DEFAULT_NODE_BUDGET == search.DEFAULT_NODE_BUDGET
        assert args.time_budget == errors.DEFAULT_TIME_BUDGET == search.DEFAULT_TIME_BUDGET

    @pytest.mark.parametrize("command", ["graph", "turan graph", "blowup"])
    @pytest.mark.parametrize("source", ["default", "flag", "config"])
    def test_graph_cap_applies(self, tmp_path, capsys, command, source):
        cap = graphs.DEFAULT_GRAPH_CAP if source == "default" else 4
        cfg = tmp_path / "caps.cfg"
        cfg.write_text(f"graph_cap={cap}\n")
        options = {"default": [], "flag": ["--graph-cap", str(cap)],
                   "config": ["--config", str(cfg)]}[source]
        for vertices in (cap, cap + 1):
            path = tmp_path / "g.txt"
            path.write_text(f"vertices={vertices}\n")
            argv = {
                "graph": ["graph", "--graph", str(path)],
                "turan graph": ["turan", "graph", "-s", "1", "-T", str(vertices)],
                "blowup": ["blowup", "--graph", str(path), "-a", "1", "-t", "1"],
            }[command]
            status = cli.main(["--no-meta", *options, *argv])
            out, err = capsys.readouterr()
            refused = (status, out) == (3, "") and f"exceed graph cap {cap}" in err
            assert refused is (vertices > cap), (vertices, status, err)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_coverage_graph_cap_applies(self, tmp_path, capsys, fam42, source):
        # canonical(4,2) has 6 members, so its disjointness graph has 6 vertices.
        for cap in (5, 6):
            cfg = tmp_path / "caps.cfg"
            cfg.write_text(f"graph_cap={cap}\n")
            options = {"flag": ["--graph-cap", str(cap)], "config": ["--config", str(cfg)]}[source]
            status = cli.main(["--no-meta", *options, "bounds", "coverage", "--family", fam42, "-k", "2"])
            out, err = capsys.readouterr()
            refused = (status, out) == (3, "") and f"exceeds graph cap {cap}" in err
            assert refused is (cap < 6), (cap, status, err)


# Help texts of the parser, printed at 80 columns by Python 3.11's argparse. They
# show no defaults, so where a cap's default is defined leaves them unchanged.
HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other Python versions")
@pytest.mark.parametrize("command", sorted(HELP))
def test_help_is_unchanged(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_readme_cli_lines_parse():
    # Every `genset ...` line of the code block in README's CLI section.
    section = (Path(__file__).parent.parent / "README.md").read_text().split("\n## CLI\n")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    lines = [line.split(" #")[0] for line in block.splitlines() if line.startswith("genset ")]
    assert len(lines) == 17
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])  # argparse exits on a bad line
        assert args.command == line.split()[1]


_junk = st.text(max_size=8)
_number = st.integers(-2, 9).map(str)
_set_text = st.lists(st.one_of(_number, _junk), min_size=1, max_size=4).map(",".join)


def _text(header, row):
    return st.builds(
        lambda head, rows: "\n".join([head, *rows]) + "\n", header, st.lists(row, max_size=8)
    )


_family_text = _text(
    st.one_of(st.integers(-1, 6).map("n={}".format), _junk),
    st.one_of(_set_text, st.just("-"), _junk),
)
_graph_text = _text(
    st.one_of(st.integers(-1, 7).map("vertices={}".format), _junk),
    st.one_of(st.tuples(_number, _number).map(" ".join), _junk),
)
_config_key = st.sampled_from(
    ["dp_cap", "dp-cap", "base_cap", "graph_cap", "node_budget", "time_budget", "threads", "bogus"]
)
_config_text = st.lists(
    st.one_of(st.tuples(_config_key, st.one_of(_number, _junk)).map("=".join), _junk), max_size=3
).map("\n".join)
_small = st.integers(-1, 4).map(str)
_tiny = st.integers(-1, 3).map(str)
_rational = st.one_of(
    st.tuples(st.integers(-1, 3), st.integers(0, 3)).map("{0[0]}/{0[1]}".format), _junk
)
_sampling = st.one_of(st.just([]), st.tuples(_tiny, st.sampled_from([[], ["--seed", "1"]])))


def _with(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _sampled(flag):
    return _sampling.map(lambda p: [flag, p[0], *p[1]] if p else [])


_command = st.one_of(
    st.tuples(
        st.just(["check", "--family", "FAM", "-k"]), _small,
        st.sampled_from([[], ["--base"]]),
        st.one_of(st.just([]), _set_text.map(lambda t: ["--decompose", t])),
    ).map(lambda p: [*p[0], p[1], *p[2], *p[3]]),
    st.tuples(
        st.sampled_from([["graph", "--family", "FAM"], ["graph", "--graph", "GRAPH"]]),
        st.one_of(st.just([]), _small.map(lambda r: ["--count-cliques", r])),
        st.one_of(st.just([]), _small.map(lambda r: ["--density", r])),
    ).map(lambda p: [*p[0], *p[1], *p[2]]),
    _small.map(lambda k: ["bounds", "coverage", "--family", "FAM", "-k", k]),
    st.tuples(st.integers(1, 3), st.integers(0, 2)).map(
        lambda p: ["blowup", "--graph", "GRAPH", "-a", str(p[0]), "-t", str(p[1])]
    ),
    st.tuples(_small, _small, _small).map(
        lambda p: ["turan", "erdos-max", "-l", p[0], "-s", p[1], "-r", p[2]]
    ),
    st.tuples(_tiny, _tiny, _sampled("--sample")).map(
        lambda p: ["experiment", "union-prob", "--family", "FAM", "-t", p[0],
                   "--threshold", p[1], *p[2]]
    ),
    st.tuples(_tiny, _tiny, _rational, _sampled("--sample")).map(
        lambda p: ["experiment", "dense-subset", "--graph", "GRAPH", "-l", p[0], "-r", p[1],
                   "--threshold", p[2], *p[3]]
    ),
    st.tuples(_tiny, _tiny, _with("--delta", _rational), _sampled("--trials")).map(
        lambda p: ["bounds", "union-check", "--family", "FAM", "-k", p[0], "-t", p[1],
                   *p[2], *p[3]]
    ),
    st.tuples(_tiny, _tiny, _tiny, _tiny, _with("--delta", _rational)).map(
        lambda p: ["bounds", "lemma4", "-n", p[0], "-k", p[1], "-m", p[2], "-t", p[3], *p[4]]
    ),
    st.tuples(_small, _small).map(lambda p: ["construct", "-n", p[0], "-k", p[1]]),
    st.tuples(_with("-n", _small), _with("-k", _small)).map(
        lambda p: ["search-min", *p[0], *p[1]]
    ),
    st.tuples(_with("--n-max", _small), _with("--k-max", _small)).map(
        lambda p: ["search-min", "--sweep", *p[0], *p[1]]
    ),
    st.tuples(_small, _small).map(lambda p: ["turan", "eta", "-r", p[0], "-s", p[1]]),
    st.tuples(_small, _small).map(lambda p: ["turan", "graph", "-s", p[0], "-T", p[1]]),
    st.tuples(_small, _small, _small).map(
        lambda p: ["turan", "closed-form", "-s", p[0], "-T", p[1], "-r", p[2]]
    ),
    st.tuples(_small, _small).map(lambda p: ["bounds", "trivial", "-n", p[0], "-k", p[1]]),
    st.tuples(_with("--n-min", _small), _small, _with("--k-min", _small), _small).map(
        lambda p: ["bounds", "table", *p[0], "--n-max", p[1], *p[2], "--k-max", p[3]]
    ),
)


class TestExitContractFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_family_text, _graph_text, _config_text, st.booleans(), _command)
    def test_exit_code_contract(
        self, tmp_path_factory, fam_text, graph_text, cfg_text, use_cfg, command
    ):
        work = tmp_path_factory.mktemp("fuzz")
        paths = {}
        for name, text in (("FAM", fam_text), ("GRAPH", graph_text), ("CFG", cfg_text)):
            paths[name] = str(work / name)
            (work / name).write_text(text)
        argv = ["--no-meta", *(["--config", paths["CFG"]] if use_cfg else [])]
        argv += [paths.get(a, a) for a in command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                status = exc.code
        assert status in {0, 1, 2, 3}
        assert "Traceback" not in err.getvalue()
        if status == 1:
            records = [json.loads(line) for line in out.getvalue().splitlines()]
            assert any(
                rec.get(key) is False
                for rec in records
                for key in ("holds", "found", "attained_by_turan", "bound_holds")
            ), records
