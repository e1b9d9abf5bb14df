"""Start-up cost and the public API of the package.

`import genset` loads only the exception types, and each CLI subcommand loads
only the layer modules it runs (mpmath only for inexact bounds). The records
are NamedTuples, so no process loads `dataclasses` or `inspect`. The public
names still resolve, on first use, to the objects their modules define, and
the records are immutable values.
"""

import importlib
import json
import subprocess
import sys

import pytest

import genset
from genset import canonical_generator, format_family

LAYERS = {f"genset.{name}" for name in ("families", "generate", "search", "graphs", "bounds")}
# What a dataclass record would load on top of the interpreter's own start-up.
RECORD_MODULES = {"dataclasses", "inspect"}

# Every public name of the package.
PUBLIC = {
    "errors": ["CapExceeded", "FamilyFormatError", "GensetError", "WorkLimitExceeded"],
    "families": [
        "Estimate", "SetFamily", "canonical_generator", "canonical_partition", "canonical_size",
        "format_family", "make_family", "mask_from_elements", "parse_family",
        "trivial_lower_bound",
    ],
    "generate": [
        "GeneratorVerdict", "decompose", "is_k_base", "is_k_generator", "reachable_layers",
    ],
    "search": ["SearchReport", "min_generator_size", "verify_conjecture_range"],
    "graphs": [
        "ErdosMaxReport", "Graph", "clique_density", "count_cliques",
        "count_disjoint_tuples", "dense_subset_fraction", "disjointness_graph",
        "erdos_max_check", "find_blowup", "format_graph", "graph_from_edges", "parse_graph",
        "turan_blowup_graph", "turan_clique_closed_form", "turan_eta",
    ],
    "bounds": [
        "BoundValue", "analytic_union_bound", "bound_table", "coverage_inequality_check",
        "lemma4_bound", "resolve_delta", "small_union_probability", "union_bound_check",
    ],
}

_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import genset
    status = None
else:
    from genset import cli
    status = cli.main(argv)
sys.stdout.flush()
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


def loaded_after(argv=None):
    """(exit status, output lines, loaded module names) of one fresh process.

    With argv None the process only runs `import genset`; otherwise it runs
    `genset.cli.main(argv)`.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    probe = json.loads(last)
    return probe["status"], lines, set(probe["modules"])


@pytest.fixture(scope="module")
def fam42(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "fam42.txt"
    path.write_text(format_family(canonical_generator(4, 2)))
    return str(path)


@pytest.fixture(scope="module")
def triangle(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "triangle.txt"
    path.write_text("vertices=4\n0 1\n0 2\n1 2\n")
    return str(path)


# Each subcommand and the layers it loads besides cli, errors and families.
SUBCOMMAND_LAYERS = {
    "construct -n 4 -k 2": set(),
    "bounds trivial -n 4 -k 2": set(),
    "check --family FAM -k 2": {"generate"},
    "check --family FAM -k 2 --base": {"generate"},
    "search-min -n 4 -k 2": {"generate", "search"},
    "search-min --n-max 3 --k-max 2": {"generate", "search"},
    "graph --family FAM --count-cliques 3": {"graphs"},
    "turan eta -r 2 -s 3": {"graphs"},
    "blowup --graph GRAPH -a 2 -t 1": {"graphs"},
    "experiment dense-subset --graph GRAPH -l 3 -r 2 --threshold 1": {"graphs"},
    "bounds lemma4 -n 12 -k 2 -m 32 -t 3": {"bounds"},
    "bounds table --n-max 4 --k-max 2": {"bounds"},
    "bounds union-check --family FAM -k 1 -t 2 --delta 1/4": {"bounds"},
    "experiment union-prob --family FAM -t 2 --threshold 2": {"bounds"},
    "bounds coverage --family FAM -k 2": {"bounds", "generate", "graphs"},
}


class TestStartupLoadsOnlyWhatRuns:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_LAYERS))
    def test_subcommand_loads_exactly_its_layers(self, fam42, triangle, command):
        paths = {"FAM": fam42, "GRAPH": triangle}
        status, lines, modules = loaded_after(
            ["--no-meta", *(paths.get(a, a) for a in command.split())]
        )
        assert status == 0 and lines
        expected = {"cli", "errors", "families", *SUBCOMMAND_LAYERS[command]}
        assert {m for m in modules if m.startswith("genset.")} == {
            f"genset.{name}" for name in expected
        }

    def test_import_loads_no_layer(self):
        _, _, modules = loaded_after()
        assert "genset.errors" in modules
        assert not modules & (LAYERS | RECORD_MODULES | {"genset.cli", "mpmath"})

    @pytest.mark.parametrize(
        "argv",
        [["check", "--family", "FAM", "-k", "2"],
         ["check", "--family", "FAM", "-k", "2", "--base"],
         ["search-min", "-n", "4", "-k", "2"]],
        ids=["check", "check-base", "search-min"],
    )
    def test_generator_commands_leave_out_graphs_and_bounds(self, fam42, argv):
        status, lines, modules = loaded_after(
            ["--no-meta", *(fam42 if a == "FAM" else a for a in argv)]
        )
        assert status == 0 and lines
        assert {"genset.families", "genset.generate"} <= modules
        assert not modules & (RECORD_MODULES | {"genset.graphs", "genset.bounds", "mpmath"})

    def test_clique_count_leaves_out_bounds(self, fam42):
        status, lines, modules = loaded_after(
            ["--no-meta", "graph", "--family", fam42, "--count-cliques", "3"]
        )
        assert status == 0 and json.loads(lines[0])["k3_count"] == 6
        assert "genset.graphs" in modules
        assert not modules & (RECORD_MODULES | {"genset.bounds", "mpmath"})

    def test_dense_subset_leaves_out_bounds(self, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("vertices=4\n0 1\n0 2\n1 2\n")
        status, lines, modules = loaded_after(
            ["--no-meta", "experiment", "dense-subset", "--graph", str(path),
             "-l", "3", "-r", "2", "--threshold", "1"]
        )
        assert status == 0 and json.loads(lines[0])["fraction"]["rational"] == "1/4"
        assert "genset.graphs" in modules
        assert not modules & (RECORD_MODULES | {"genset.bounds", "mpmath"})

    def test_exact_union_prob_leaves_out_mpmath(self, fam42):
        status, lines, modules = loaded_after(
            ["--no-meta", "experiment", "union-prob", "--family", fam42, "-t", "2",
             "--threshold", "2"]
        )
        assert status == 0 and json.loads(lines[0])["probability"]["rational"] == "2/3"
        assert "genset.bounds" in modules
        assert not modules & (RECORD_MODULES | {"genset.graphs", "mpmath"})

    def test_derived_delta_union_check_leaves_out_mpmath(self, tmp_path):
        # m = 126 is no power of two, but whether the derived delta is positive
        # is decided from integers: 126^3 > 2^12.
        path = tmp_path / "canon12_2.txt"
        path.write_text(format_family(canonical_generator(12, 2)))
        status, lines, modules = loaded_after(
            ["--no-meta", "bounds", "union-check", "--family", str(path), "-k", "2", "-t", "3"]
        )
        record = json.loads(lines[0])
        assert status == 0 and record["m"] == 126 and record["in_regime"] is True
        assert "genset.bounds" in modules
        assert not modules & (RECORD_MODULES | {"genset.graphs", "mpmath"})

    def test_exact_bound_leaves_out_mpmath(self):
        status, lines, modules = loaded_after(
            ["--no-meta", "bounds", "lemma4", "-n", "12", "-k", "2", "-m", "32", "-t", "3"]
        )
        assert status == 0 and json.loads(lines[0])["bound"]["rational"] == "31238127616000/1"
        assert "genset.bounds" in modules
        assert not modules & (RECORD_MODULES | {"mpmath"})

    def test_inexact_bound_loads_mpmath(self):
        # m = 33 is no power of two, so delta = log2(33)/12 - 1/3 is evaluated with mpmath.
        status, lines, modules = loaded_after(
            ["--no-meta", "bounds", "lemma4", "-n", "12", "-k", "2", "-m", "33", "-t", "3"]
        )
        assert status == 0 and "mpmath" in modules
        assert json.loads(lines[0]) == {
            "bound": {"approx": 37911517248929.19, "exact": False, "precision_bits": 113},
            "delta": {"approx": 0.08703284327987112, "exact": False, "precision_bits": 113},
            "k": 2, "m": 33, "n": 12, "t": 3,
        }


class TestPublicApi:
    @pytest.mark.parametrize(
        "module,name", [(module, name) for module, names in PUBLIC.items() for name in names]
    )
    def test_name_resolves_to_its_module_object(self, module, name):
        namespace = {}
        exec(f"from genset import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"genset.{module}"), name)

    def test_all_and_dir_list_every_name(self):
        names = sorted(name for names in PUBLIC.values() for name in names)
        assert sorted(genset.__all__) == names
        assert set(names) <= set(dir(genset))

    def test_records_are_immutable_values(self):
        from genset import Graph, make_family, min_generator_size

        fam = make_family(3, [0b101, 0b001, 0b101])
        same = make_family(3, [0b001, 0b101])
        assert fam == same and hash(fam) == hash(same)
        assert len({(fam, 2), (same, 2)}) == 1  # the benchmark tracer's key for a DP call
        records = [(fam, "members"), (Graph((0b10, 0b01)), "rows"),
                   (min_generator_size(2, 1), "minimum")]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_unknown_name_is_attribute_error(self):
        assert not hasattr(genset, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            genset.no_such_name
        with pytest.raises(ImportError):
            exec("from genset import no_such_name", {})
