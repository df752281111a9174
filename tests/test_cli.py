import ast
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cographic
from cographic import (build_orientation_poset, catalog_graph, orientations,
                       semigroup)
from cographic.cli import main
from cographic.catalog import CATALOG
from cographic.graph import graph_to_text
from cographic.jsontext import dumps
from conftest import k4_plus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _banana_file(tmp_path, m):
    """A graph file holding the banana graph with m parallel edges."""
    path = tmp_path / f"banana{m}.graph"
    path.write_text("".join(f"edge e{i} v1 v2\n" for i in range(m)))
    return str(path)


def test_examples_lists_catalog(capsys):
    code, out, err = run_cli(capsys, "examples")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == set(CATALOG)
    for name in ("TREE3", "LOOP1", "B2", "B3", "C3", "C4", "C5", "C6", "C7",
                 "THETA2", "FIG-NG", "FIG-NH"):
        assert name in payload


def test_analyze_loop1(capsys):
    code, out, err = run_cli(capsys, "analyze", "LOOP1")
    assert code == 0
    report = json.loads(out)
    assert report["ring"]["dimension"] == 1
    assert report["ring"]["embedded_dimension"] == 2
    assert report["ring"]["num_minimal_primes"] == 2
    assert report["ring"]["multiplicity"] == 2
    assert report["orientation_poset"]["size"] == 3
    # global ring statuses are asserted, never computed here
    asserted = report["ring"]["asserted_properties"]
    assert set(asserted) == {"gorenstein", "seminormal", "semi_log_canonical"}
    assert all("not computed" in v for v in asserted.values())


def test_analyze_b3(capsys):
    code, out, err = run_cli(capsys, "analyze", "B3")
    assert code == 0
    report = json.loads(out)
    assert report["ring"]["dimension"] == 2
    assert report["ring"]["embedded_dimension"] == 6
    assert report["ring"]["num_minimal_primes"] == 6
    assert report["ring"]["multiplicity"] == 6


def test_analyze_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "analyze", "B3")
    _, second, _ = run_cli(capsys, "analyze", "B3")
    assert first == second


def test_analyze_theta2_reports_unimodularity_witness(capsys):
    code, out, _ = run_cli(capsys, "analyze", "THETA2")
    assert code == 0
    report = json.loads(out)
    # the chamber of the reference orientation: empty support, all forward
    chamber = next(c for c in report["chambers"]
                   if c["label"]["T"] == [] and
                   all(s == "+" for s in c["label"]["phi"].values()))
    assert chamber["unimodular"] is False
    minors = {abs(w["minor"]) for w in chamber["unimodular_witness"]}
    assert minors == {1, 2}
    assert report["ring"]["multiplicity"] == 76


def test_analyze_from_file(tmp_path, capsys):
    path = tmp_path / "banana.graph"
    path.write_text(CATALOG["B3"])
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["ring"]["multiplicity"] == 6


def test_orientations_subcommand(capsys):
    code, out, _ = run_cli(capsys, "orientations", "B3")
    assert code == 0
    assert len(json.loads(out)["totally_cyclic_orientations"]) == 6


def _k4x2_file(tmp_path):
    path = tmp_path / "k4x2.graph"
    path.write_text(graph_to_text(k4_plus(6)))
    return str(path)


@pytest.mark.parametrize("graph, digest", [
    (_k4x2_file,
     "8689651bee0aed13d142465717f64d3bef574d5a5bee5d6d7234958978c8b6c5"),
    (lambda tmp_path: _banana_file(tmp_path, 12),
     "9df8b86878437fd7f8f989e669de5e36a4b044bdc65bf7353c1d0218a4d874b6"),
    (lambda tmp_path: "LOOP1",
     "2282697c61ce3a18762b7aa45412f5f809ed4b0672eca4becb7c0233a2a09847"),
    (lambda tmp_path: "TREE3",
     "db252e54ac29b52828b1d36775a1bc9c61cdc758161bc9326c5e1cbf03bcb020"),
], ids=["K4x2", "banana12", "LOOP1", "TREE3"])
def test_orientations_stdout_pin(tmp_path, capsys, graph, digest):
    # 3,608 and 4,094 orientations, two, and none for a tree; the hashes
    # predate ``enumerate_tco`` returning forward-edge masks.
    code, out, _ = run_cli(capsys, "orientations", graph(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_circuits_subcommand(capsys):
    code, out, _ = run_cli(capsys, "circuits", "FIG-NG")
    assert code == 0
    assert len(json.loads(out)["oriented_circuits"]) == 20


def test_fan_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fan", "B3")
    assert code == 0
    report = json.loads(out)
    assert report["num_cones"] == 13
    assert report["num_chambers"] == 6


def test_ring_subcommand_with_degree(capsys):
    code, out, _ = run_cli(capsys, "--degree", "2", "ring", "LOOP1")
    assert code == 0
    report = json.loads(out)
    assert report["presentation"]["degree_bound"] == 2
    assert len(report["presentation"]["quadrics"]) == 1


def test_compare_same(capsys):
    code, out, _ = run_cli(capsys, "compare", "C5", "C7")
    assert code == 0
    report = json.loads(out)
    assert report["same_ring"] is True
    assert report["g_class_size"] == report["h_class_size"] == 1


def test_compare_different(capsys):
    code, out, _ = run_cli(capsys, "compare", "B3", "C4")
    assert code == 1
    assert json.loads(out)["same_ring"] is False


def test_verify_invariant_ring(capsys):
    code, out, _ = run_cli(capsys, "--degree", "4", "verify-invariant-ring", "B3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_invariant_ring_rejects_negative_degree(capsys):
    code, out, err = run_cli(capsys, "--degree", "-1",
                             "verify-invariant-ring", "THETA2")
    assert code == 1
    assert out == ""
    assert err == "error: degree must be nonnegative\n"
    code, out, _ = run_cli(capsys, "--degree", "0",
                           "verify-invariant-ring", "THETA2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_invariant_ring_doubled_k4_file(tmp_path, capsys):
    path = tmp_path / "k4x2.graph"
    path.write_text(graph_to_text(k4_plus(6)))
    code, out, _ = run_cli(capsys, "--degree", "4",
                           "verify-invariant-ring", str(path))
    assert code == 0
    assert json.loads(out) == {"isomorphic_up_to_degree": 4, "passed": True}


def test_fan_k4_plus_two_file(tmp_path, capsys):
    # The hash predates the one-pass ``Fan.to_json``.
    path = tmp_path / "k4p2.graph"
    path.write_text(graph_to_text(k4_plus(2)))
    code, out, _ = run_cli(capsys, "fan", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "dff15b496f90aca343584457766b0ea292ea17bd56c5efcc7eb2ee977b726be3"


def test_fan_k4_plus_four_file(tmp_path, capsys):
    # 19,963 cones; the hash predates the edge-bitmask facets.
    path = tmp_path / "k4p4.graph"
    path.write_text(graph_to_text(k4_plus(4)))
    code, out, _ = run_cli(capsys, "fan", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3639ff9b7b6c769bf50d570d2b3fd53ad64b715e7962b448d0dc6523accd1a39"


def test_analyze_k4_plus_two_file(tmp_path, capsys):
    # The first analyze pin at d = 5, where the Hilbert-Samuel oracle is
    # most of the run; the hash predates the packed edge-functional keys.
    path = tmp_path / "k4p2.graph"
    path.write_text(graph_to_text(k4_plus(2)))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d39020daeb4fc4824d53b8577cdbf6d198285b005f180e6cc3627ceeaaa89755"


def test_ring_k4_plus_three_file(tmp_path, capsys):
    # Its 340 chambers fall into 13 classes; the hash predates the sharing
    # of ideals and volumes across a class.
    path = tmp_path / "k4p3.graph"
    path.write_text(graph_to_text(k4_plus(3)))
    code, out, _ = run_cli(capsys, "ring", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ba029286bcbada06fc3df36193663b7d0c3a0defa9e08e018cb6bc86544e9ffc"


def test_ring_k4_plus_two_file_at_degree_five(tmp_path, capsys):
    # Binomials of degree 4 and 5 run the toric stage on exponent vectors
    # no degree-3 report reaches; the hash predates the multiset walk.
    path = tmp_path / "k4p2.graph"
    path.write_text(graph_to_text(k4_plus(2)))
    code, out, _ = run_cli(capsys, "--degree", "5", "ring", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1b86af070067594abf4318f64f93c62a2ab47f1e6b183a789bc7a80450c11c94"


def test_ring_k4_plus_four_file(tmp_path, capsys):
    # Its largest class has 20 generators at d = 7; the hash predates the
    # beneath-beyond hull.
    path = tmp_path / "k4p4.graph"
    path.write_text(graph_to_text(k4_plus(4)))
    code, out, _ = run_cli(capsys, "ring", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "10d700614f08b67330a6baa3519335187efb0f0053ec91f86c5ba947494c3284"


def test_ring_banana_eight_file(tmp_path, capsys):
    # Every chamber's generators lie on one plane at d = 7; the hash
    # predates the beneath-beyond hull.
    code, out, _ = run_cli(capsys, "ring", _banana_file(tmp_path, 8))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b417300a0d1469234fcf54398db68f79aebace4ea24dd24b5088e8bdbb80eef7"


def test_analyze_banana_seven_file(tmp_path, capsys):
    # The hash predates unimodularity tested once per class of chambers.
    code, out, _ = run_cli(capsys, "analyze", _banana_file(tmp_path, 7))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "136782587daada20fa61531fc5837dbd5a1edb64c3c85a2941c9d497345d7350"


class _LongestWrite(io.StringIO):
    """A stdout that records the length of its longest write."""

    longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return super().write(text)


@pytest.mark.parametrize("command, graph, lists", [
    ("fan", "K4p2", [["cones"]]),
    ("ring", "K4p2", [["presentation", "chambers"]]),
    ("analyze", "THETA2", [["chambers"], ["presentation", "chambers"]]),
])
def test_each_write_holds_at_most_one_entry(tmp_path, command, graph, lists):
    # The reports are streamed: no write to stdout is longer than the
    # longest cone or chamber entry, so none holds two of them.
    if graph == "K4p2":
        graph = tmp_path / "k4p2.graph"
        graph.write_text(graph_to_text(k4_plus(2)))
    sink = _LongestWrite()
    with redirect_stdout(sink):
        assert main([command, str(graph)]) == 0
    report = json.loads(sink.getvalue())
    entries = []
    for path in lists:
        node = report
        for key in path:
            node = node[key]
        entries += node
    assert len(entries) > 1
    assert 0 < sink.longest <= max(len(dumps(entry)) for entry in entries)


def test_closed_stdout_exits_quietly(tmp_path):
    # The reader stops after 50 bytes of a 17 MB report: the next write
    # meets a broken pipe, and the exit is 1 with nothing on stderr.
    path = tmp_path / "k4p4.graph"
    path.write_text(graph_to_text(k4_plus(4)))
    src = str(Path(cographic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cographic.cli", "fan", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert head.startswith(b'{"cones":[{"dimension":')
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.graph"
    path.write_text("edge oops\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_input_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "NO_SUCH_THING")
    assert code == 2


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe"),
], ids=["directory", "invalid-utf8"])
def test_unreadable_graph_path_is_parse_error(tmp_path, capsys, make):
    path = tmp_path / "input.graph"
    make(path)
    code, out, err = run_cli(capsys, "fan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:")


def test_capacity_exit_code(tmp_path, capsys):
    lines = [f"edge e{i} v1 v2" for i in range(16)]
    path = tmp_path / "big.graph"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("m, argv, message", [
    (15, ("fan", "G"), "orientation poset edge cap: size 15 exceeds cap 14"),
    (15, ("analyze", "G"),
     "orientation poset edge cap: size 15 exceeds cap 14"),
    (15, ("ring", "G"), "orientation poset edge cap: size 15 exceeds cap 14"),
    (15, ("compare", "G", "G"),
     "connectivization edge cap: size 15 exceeds cap 14"),
    (21, ("circuits", "G"),
     "circuit enumeration edge cap: size 21 exceeds cap 20"),
    (21, ("orientations", "G"),
     "orientation enumeration edge cap: size 21 exceeds cap 20"),
    (10, ("--degree", "5", "verify-invariant-ring", "G"),
     "invariant check chain cap: size 590557 exceeds cap 100000"),
])
def test_capacity_error_on_graph_file(tmp_path, capsys, m, argv, message):
    # G stands for a file holding the banana graph with m parallel edges
    graph = _banana_file(tmp_path, m)
    code, out, err = run_cli(capsys, *(graph if a == "G" else a
                                       for a in argv))
    assert code == 3
    assert out == ""
    assert err == f"capacity error: {message}\n"


def test_global_option_is_degree():
    from cographic.cli import build_parser
    options = [a.option_strings for a in build_parser()._actions
               if a.option_strings]
    assert options == [["-h", "--help"], ["--degree"]]


def test_degree_default_is_the_ring_constant():
    from cographic.cli import build_parser
    from cographic.ring import DEFAULT_DEGREE_BOUND
    assert build_parser().parse_args(["ring", "B3"]).degree == \
        DEFAULT_DEGREE_BOUND


def test_hs_horizon_is_not_an_option(capsys):
    # argparse reads "3" as the command and rejects it as a usage error
    code, out, err = run_cli(capsys, "--hs-horizon", "3", "analyze", "THETA2")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: cographic")


@pytest.mark.parametrize("command", ["ring", "analyze"])
@pytest.mark.parametrize("name", ["TREE3", "LOOP1"])
def test_degree_below_one_is_a_usage_error(capsys, command, name):
    # TREE3's one chamber has an empty Hilbert basis; the check must not
    # depend on the basis.
    for degree in ("0", "-1"):
        code, out, err = run_cli(capsys, "--degree", degree, command, name)
        assert code == 1
        assert out == ""
        assert err == "error: degree bound must be at least 1\n"
    code, out, _ = run_cli(capsys, "--degree", "1", command, name)
    assert code == 0
    assert json.loads(out)["presentation"]["degree_bound"] == 1


@pytest.mark.parametrize("command", ["ring", "analyze"])
@pytest.mark.parametrize("degree, size", [("30", 48903491), ("8", 12869)])
def test_toric_ideal_degree_is_capped(capsys, command, degree, size):
    # THETA2's first chamber class has 8 Hilbert basis elements, so
    # C(8 + degree, 8) - 1 exponent vectors; 6434 at degree 7
    code, out, err = run_cli(capsys, "--degree", degree, command, "THETA2")
    assert code == 3
    assert out == ""
    assert err == (f"capacity error: toric ideal exponent cap at degree "
                   f"{degree}: size {size} exceeds cap 10000\n")
    code, out, _ = run_cli(capsys, "--degree", "7", "ring", "THETA2")
    assert code == 0


def test_package_exports_names_not_modules():
    for name in cographic.__all__:
        assert not inspect.ismodule(getattr(cographic, name)), name


def test_every_private_helper_has_a_caller():
    # A module-level function named with a leading underscore that nothing
    # in the package refers to, apart from its own definition, is dead.
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(cographic.__file__).parent.glob("*.py")}
    references = [(getattr(node, "id", None) or getattr(node, "attr", None)
                   or node.name, id(node))
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    for module, tree in trees.items():
        for helper in tree.body:
            if not (isinstance(helper, ast.FunctionDef)
                    and helper.name.startswith("_")):
                continue
            inside = set(map(id, ast.walk(helper)))
            assert any(name == helper.name and node not in inside
                       for name, node in references), \
                f"{module}: {helper.name} has no caller"


def _referenced_names(tree, skip=()):
    """Names, attributes and imported names that ``tree`` refers to,
    leaving out the nodes inside the definitions in ``skip``."""
    inside = {id(node) for definition in skip for node in ast.walk(definition)}
    return {getattr(node, "id", None) or getattr(node, "attr", None)
            or node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            and id(node) not in inside}


def test_every_public_name_has_a_caller():
    # A name the package exports that no package module uses, apart from
    # its own definition and ``__init__.py``, and that no demo or
    # benchmark script uses, has only tests for callers.
    package = Path(cographic.__file__).parent
    root = Path(__file__).resolve().parent.parent
    scripts = set().union(*(
        _referenced_names(ast.parse(path.read_text()))
        for path in [*root.glob("demos/**/*.py"), *root.glob("bench/**/*.py")]))
    modules = [ast.parse(path.read_text()) for path in package.glob("*.py")
               if path.name != "__init__.py"]

    def defines(statement, name):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            return statement.name == name
        return (isinstance(statement, ast.Assign)
                and any(getattr(t, "id", None) == name
                        for t in statement.targets))

    uncalled = []
    for name in cographic.__all__:
        if name in scripts:
            continue
        if not any(name in _referenced_names(
                tree, [s for s in tree.body if defines(s, name)])
                for tree in modules):
            uncalled.append(name)
    assert uncalled == []


def test_every_oracle_has_a_test():
    # A public function of ``oracles.py`` that no test module refers to is
    # a reference nothing is compared with.
    tests = Path(__file__).parent
    referenced = set().union(*(_referenced_names(ast.parse(path.read_text()))
                               for path in tests.glob("test_*.py")))
    for oracle in ast.parse((tests / "oracles.py").read_text()).body:
        if (isinstance(oracle, ast.FunctionDef)
                and not oracle.name.startswith("_")):
            assert oracle.name in referenced, \
                f"oracles.py: {oracle.name} has no test"


def test_usage_exit_code(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 1


def test_round_trip_catalog_reports(capsys):
    # parse -> serialize -> parse -> analyze twice, byte-identical output
    from cographic import graph_to_text, parse_graph_text
    for name, text in CATALOG.items():
        g = parse_graph_text(text)
        assert parse_graph_text(graph_to_text(g)) == g
    for name in ("TREE3", "LOOP1", "B2", "C3", "C7"):
        _, first, _ = run_cli(capsys, "analyze", name)
        _, second, _ = run_cli(capsys, "analyze", name)
        assert first == second


# Per-graph objects each command builds: a fan, the circuit list, a
# semigroup per chamber (one ``hilbert_basis`` call and one circuit filter
# each), and a toric ideal and a volume per class of chambers; ``compare`` needs one connectivization per graph.
# ``semigroup_report`` (one per chamber), the Hilbert-Samuel function
# (one per class) and the unimodularity test belong to ``analyze`` alone,
# and the bounded-mass cycles to ``verify-invariant-ring``, which lists
# them once.  Unimodularity is tested once per class, and once more for
# each other member of a class that is not unimodular.
COUNTED = ("build_fan", "enumerate_oriented_circuits", "hilbert_basis",
           "compatible_circuits",
           "subdiagram_volume", "toric_ideal_up_to_degree",
           "three_edge_connectivization", "semigroup_report",
           "hilbert_samuel_function", "is_unimodular", "cycles_up_to_mass")


def count_calls(monkeypatch, names):
    """Call counts of the named package functions, wrapped in every
    ``cographic`` module that binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "cographic" or name.startswith("cographic.")]
    for name in names:
        original = getattr(cographic, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return count_calls(monkeypatch, COUNTED)


# Classes of chambers (``semigroup.chamber_classes``) of each graph below,
# and its chambers that are neither unimodular nor a representative:
# THETA2 and FIG-NH each have one class that is not unimodular, a chamber
# and its reversal.
CLASSES = {"THETA2": 4, "FIG-NH": 4, "FIG-NG": 2}
NON_UNIMODULAR_MEMBERS = {"THETA2": 1, "FIG-NH": 1, "FIG-NG": 0}


@pytest.mark.parametrize("command, name", [
    ("analyze", "THETA2"), ("analyze", "FIG-NH"), ("ring", "FIG-NG")])
def test_each_object_is_built_once(command, name, calls, capsys):
    code, out, _ = run_cli(capsys, command, name)
    assert code == 0
    chambers = json.loads(out)["ring"]["num_minimal_primes"]
    classes = CLASSES[name]
    assert chambers > classes
    assert calls == {
        "build_fan": 1,
        "enumerate_oriented_circuits": 1,
        "hilbert_basis": chambers,
        "compatible_circuits": chambers,
        "subdiagram_volume": classes,
        "toric_ideal_up_to_degree": classes,
        "three_edge_connectivization": 0,
        "semigroup_report": chambers if command == "analyze" else 0,
        "hilbert_samuel_function": classes if command == "analyze" else 0,
        "is_unimodular": (classes + NON_UNIMODULAR_MEMBERS[name]
                          if command == "analyze" else 0),
        "cycles_up_to_mass": 0,
    }


def test_short_hs_horizon_names_the_horizon_needed(capsys, monkeypatch):
    # THETA2's chambers have dimension 4: horizon 4 - 1 = 3 leaves fewer
    # than two 4-th differences, so the error asks for d + 2 = 6.
    monkeypatch.setattr(semigroup, "HS_HORIZON_MARGIN", -1)
    code, out, err = run_cli(capsys, "analyze", "THETA2")
    assert code == 3
    assert out == ""
    assert err == ("capacity error: Hilbert-Samuel horizon at dimension 4 "
                   "(4-th differences not stable): size 6 exceeds cap 3\n")


def bond_tables(monkeypatch):
    """The graph of every ``orientations.bond_table`` call."""
    graphs = []
    original = orientations.bond_table

    def counted(g, edges):
        graphs.append(g)
        return original(g, edges)

    monkeypatch.setattr(orientations, "bond_table", counted)
    return graphs


def test_fan_derives_each_cone_once(monkeypatch, capsys):
    # One circuit filter per cone, one cycle basis per support (the poset
    # lists its cones grouped by support), and one bond table for the
    # graph, shared by the poset walk and every cone's facets.  The
    # supports are counted first, since that poset's bridge search builds
    # a cycle basis of its own.
    poset = build_orientation_poset(catalog_graph("THETA2"))
    supports = len({pair.support for pair in poset})
    assert supports == 34
    counts = count_calls(monkeypatch, ["compatible_circuits",
                                       "fundamental_cycle_basis"])
    tables = bond_tables(monkeypatch)
    code, out, _ = run_cli(capsys, "fan", "THETA2")
    assert code == 0
    assert len(tables) == 1
    cones = json.loads(out)["num_cones"]
    assert cones == 261
    assert counts == {"compatible_circuits": cones,
                      "fundamental_cycle_basis": supports}


def test_ring_builds_one_cycle_basis(monkeypatch, tmp_path, capsys):
    # Every chamber has the bridge support (K4p2's 144 and THETA2's 46
    # have the empty one), so all of them share one cycle basis.  The
    # graph keeps one bond table, which the poset walk and each of
    # analyze's 46 ``q_gorenstein`` facet tests read.
    counts = count_calls(monkeypatch, ["compatible_circuits",
                                       "fundamental_cycle_basis",
                                       "q_gorenstein"])
    tables = bond_tables(monkeypatch)
    path = tmp_path / "k4p2.graph"
    path.write_text(graph_to_text(k4_plus(2)))
    for command, name, chambers, gorenstein in [
            ("ring", str(path), 144, 0), ("analyze", "THETA2", 46, 46)]:
        counts.update(dict.fromkeys(counts, 0))
        tables.clear()
        code, out, _ = run_cli(capsys, command, name)
        assert code == 0
        assert json.loads(out)["ring"]["num_minimal_primes"] == chambers
        assert counts == {"compatible_circuits": chambers,
                          "fundamental_cycle_basis": 1,
                          "q_gorenstein": gorenstein}
        assert len(tables) == 1


def test_compare_connectivizes_each_graph_once(calls, capsys):
    code, out, _ = run_cli(capsys, "compare", "THETA2", "FIG-NH")
    assert code == 0
    assert json.loads(out)["same_ring"] is True
    assert calls == dict.fromkeys(COUNTED, 0) | {
        "three_edge_connectivization": 2}


def test_compare_connectivizes_in_one_pass(monkeypatch, capsys):
    # Each input graph's bridges and separating classes come off one cycle
    # basis, and no bond table is built: the cycles' edge sets alone
    # decide the 3-edge connectivization.
    counts = count_calls(monkeypatch, ["fundamental_cycle_basis"])
    tables = bond_tables(monkeypatch)
    code, out, _ = run_cli(capsys, "compare", "C5", "C7")
    assert code == 0
    assert json.loads(out)["same_ring"] is True
    assert counts == {"fundamental_cycle_basis": 2}
    assert tables == []


@pytest.mark.parametrize("name", ["B3", "THETA2", "FIG-NH"])
def test_invariant_check_enumerates_cycles_once(name, calls, capsys):
    code, out, _ = run_cli(capsys, "--degree", "4",
                           "verify-invariant-ring", name)
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert calls == dict.fromkeys(COUNTED, 0) | {"cycles_up_to_mass": 1}


def test_invariant_check_builds_no_boundary(monkeypatch, capsys):
    # The ambient walk tests zero boundary on packed keys, one AND per
    # chain, and lists the bounded cycles once: no ``boundary`` dict is
    # built for any of THETA2's 3,653 chains of mass at most 5.
    counts = count_calls(monkeypatch, ["boundary", "cycles_up_to_mass"])
    code, out, _ = run_cli(capsys, "--degree", "5",
                           "verify-invariant-ring", "THETA2")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert counts == {"boundary": 0, "cycles_up_to_mass": 1}


@pytest.mark.parametrize("command", ["ring", "analyze"])
def test_graph_summary_shares_the_bridgeless_basis(command, monkeypatch,
                                                   capsys):
    # The summary's bridges come off the basis of the whole graph, and the
    # chambers off the basis of the graph less its bridges.  The summary
    # is read before the chambers, so each is built once.
    counts = count_calls(monkeypatch, ["fundamental_cycle_basis"])
    code, out, _ = run_cli(capsys, command, "TREE3")
    assert code == 0
    assert json.loads(out)["graph"]["separating_edges"] == ["e1", "e2"]
    assert counts == {"fundamental_cycle_basis": 2}
