import hashlib
import importlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time

import pytest

from ferrers_lab import (
    budget,
    cli,
    exactla,
    graphs,
    parse_graph_file,
    search,
    spectral,
    trees,
)

from conftest import example_staircase, inflate_tau_of

# the package exports a function under the module's name
resistance_module = importlib.import_module("ferrers_lab.resistance")


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def staircase_file(tmp_path):
    path = tmp_path / "ex.graph"
    code = cli.main(["gen", "--partition", "3,3,2,1", "--cols", "3",
                     "--out", str(path)])
    assert code == 0
    return str(path)


# sha256 of every README command example, as json and as csv, with the
# elapsed line dropped; the two scans run at smaller sizes
README_DIGESTS = [
    ("gen", ["gen", "--partition", "3,3,2,1", "--cols", "3"],
     "1cbcbff1910695d91ff0d1289a77fc6a57690f649dab488b05ca19dc2244fadb",
     "1cbcbff1910695d91ff0d1289a77fc6a57690f649dab488b05ca19dc2244fadb"),
    ("trees", ["trees", "--graph", "EX"],
     "3dc1ae61206943733ad71bc9cae1703f8f88987fd139867670f8dfcbac9e7520",
     "609e7fecefa50331d89583c5a75f85c60423c54dbd69737a44efab8e39dc1599"),
    ("trees-stdin", ["trees", "--graph", "-"],
     "3dc1ae61206943733ad71bc9cae1703f8f88987fd139867670f8dfcbac9e7520",
     "609e7fecefa50331d89583c5a75f85c60423c54dbd69737a44efab8e39dc1599"),
    ("trees-sigma", ["trees", "--graph", "EX", "--enumerate", "--sigma"],
     "83fdda40142ead9f97b0ad1fef1097ab1206a8c396437391cf982ea7747524fc",
     "edb05d33b0f6061e90bf371a67b10371e39cb84a2ec176e7c6bdf6c4064944bc"),
    ("spectral", ["spectral", "--graph", "EX"],
     "2db131b7d7838ae84aa18e8a7f1ae854c3e0cc70633483aa488d1b852c5411ac",
     "51ebdb9792517348ce0be4b7399c01d176f236e62b6618a542cb5804d96d6e83"),
    ("resistance", ["resistance", "--graph", "EX", "--pair", "4,7"],
     "fc3535d4c395668657f4819c2f1d6fa1438c9d8143e91512767415b272ed35a5",
     "5d8c6d25f961a2d4bc5cdaa717cd7a34f1548187d8291f43edb46e252513eaf9"),
    ("thm71", ["thm71", "--graph", "K4", "--e", "1,2", "--f", "3,4"],
     "8e05ac2baf96add0911961f6f25cfd9d823065086ae0cd416b44c73b937a3feb",
     "1637726924f0fbe42299aa866d635138131645e39162df0b0b9f09c3daa8b51e"),
    ("thm71-scan", ["thm71-scan", "--max-n", "5", "--jobs", "2"],
     "a331794e698d2c9fcd7cb41789f9be58fa89eae11e030dd9361931ddb44b0af5",
     "b8a100a0a544c5d849c3d3ec505e675bf87b9d87b35355040afe7a59ec2d038f"),
    ("check-all", ["check", "--graph", "EX", "--all"],
     "f595c1b6714674255432ee9517020474d9334150b8b3d410f0985068669d083b",
     "ebe11b830d2acf71839813b4a9538562b98e99f606219e84ac1b94ff8072e245"),
    ("check-bozkurt", ["check", "--graph", "EX", "--bound", "bozkurt"],
     "6b2e223cb9f16e769f825f3e7d0157079e7d9e7c30165098e2451cf760a76b88",
     "820e9c07eae074b0d5d70fa3c431597abb6437e309d10dc6bc451c742ebfb316"),
    ("verify-ferrers-bound", ["verify-ferrers-bound", "--max-vertices", "8", "--jobs", "2"],
     "bc078dfb036af3e68fb68fcf760150d777e2c9e6b53ba67fefe13214563d2049",
     "28f0176afd048adf95944adadfe28a714766bbd9c0beb309a09a7b4a5134b3b7"),
    ("spectral-search", ["spectral-search", "--p", "3", "--q", "4", "--e", "10"],
     "425fa6d22b16a06fc2cb85dc4ba22d0c2ca795eaac5365b9c6d0e7df9fc1eb0b",
     "a798a721bf384d5d4a26f9cf43218e22ae50dd2a0aa48fe11a79dcf985f0d3de"),
    ("degree-class", ["degree-class", "--D", "3,3,2,1"],
     "94c47d8dfb20c5af63a19dc74de18565cf42bd8fa37385b4623ec90182be4fee",
     "bdf5a8e66a5a96a013edc8916abdb25cde6ab9fe62166b2677eab02d060564c7"),
]


def _report_digest(out):
    """sha256 of a rendered report with its elapsed line dropped."""
    kept = [line for line in out.splitlines(keepends=True)
            if not line.lstrip().startswith(('"elapsed":', "elapsed,"))]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv, json_sha, csv_sha",
                         [case[1:] for case in README_DIGESTS],
                         ids=[case[0] for case in README_DIGESTS])
def test_readme_examples_byte_identical(argv, json_sha, csv_sha, fmt,
                                        staircase_file, tmp_path, capsys,
                                        monkeypatch):
    k4 = tmp_path / "k4.graph"
    k4.write_text("general 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    files = {"EX": staircase_file, "K4": str(k4)}
    argv = [files.get(arg, arg) for arg in argv]
    if argv[-1] == "-":
        with open(staircase_file) as fh:
            monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    code, out, _ = run_cli(argv + ["--format", fmt], capsys)
    assert code == 0
    assert _report_digest(out) == (json_sha if fmt == "json" else csv_sha)


def test_gen_trees_round_trip(staircase_file, capsys):
    code, out, _ = run_cli(["trees", "--graph", staircase_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["tau"] == "36"
    assert doc["ferrers_invariant"] == "36"
    assert doc["ferrers_good"] is True


def test_gen_output_parses(staircase_file):
    with open(staircase_file) as fh:
        graph = parse_graph_file(fh.read())
    assert graph == example_staircase()


def test_gen_default_cols(capsys):
    code, out, _ = run_cli(["gen", "--partition", "2,1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "bipartite 2 2"


def test_gen_at_the_vertex_cap_reads_back(tmp_path, capsys):
    # a star on 100 vertices: one row, 99 columns
    path = tmp_path / "star.graph"
    assert run_cli(["gen", "--partition", "99", "--out", str(path)], capsys)[0] == 0
    code, out, _ = run_cli(["trees", "--graph", str(path)], capsys)
    assert code == 0 and json.loads(out)["tau"] == "1"


@pytest.mark.parametrize("argv, vertices", [
    (["--partition", "100"], 101),
    (["--partition", "1", "--cols", str(10 ** 20)], 10 ** 20 + 1),
    (["--partition", str(10 ** 20)], 10 ** 20 + 1),
])
def test_gen_over_the_vertex_cap_is_budget(argv, vertices, capsys, monkeypatch):
    # refused before any row is built
    monkeypatch.setattr(cli, "ferrers_from_partition", None)
    code, out, err = run_cli(["gen"] + argv, capsys)
    assert (code, out) == (3, "")
    assert err == ("ferrers-lab: budget exceeded: graph file of %d vertices"
                   " exceeds the cap of 100\n" % vertices)


def test_gen_follows_a_lowered_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "GRAPH_FILE_VERTICES", 5)
    path = tmp_path / "cap.graph"
    code, _, _ = run_cli(["gen", "--partition", "2,1", "--cols", "3",
                          "--out", str(path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["trees", "--graph", str(path)], capsys)
    assert code == 0 and json.loads(out)["tau"] == "0"
    code, out, err = run_cli(["gen", "--partition", "2,2,1", "--cols", "3"], capsys)
    assert (code, out) == (3, "")
    assert err.endswith("graph file of 6 vertices exceeds the cap of 5\n")


@pytest.mark.parametrize("text", [
    "bipartite 3 3\ne 1 1\ne 1 2\ne 1 3\ne 2 1\ne 2 2\ne 3 1\n",  # staircase
    "bipartite 3 3\ne 1 1\ne 1 2\ne 2 2\ne 2 3\ne 3 3\ne 3 1\n",  # 6-cycle
    "bipartite 2 2\ne 1 1\ne 2 2\n",  # two components
    "bipartite 2 3\ne 1 1\ne 1 2\ne 2 1\n",  # isolated column
], ids=["staircase", "non-ferrers", "disconnected", "isolated-vertex"])
def test_trees_verdict_matches_eq3(text, tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(text)
    code, out, _ = run_cli(["check", "--graph", str(path), "--bound", "eq3"], capsys)
    eq3 = json.loads(out)["reports"][0]
    trees_code, out, _ = run_cli(["trees", "--graph", str(path)], capsys)
    doc = json.loads(out)
    assert (doc["tau"], doc["ferrers_invariant"], doc["ferrers_good"]) == (
        eq3["lhs"], eq3["rhs"], eq3["holds"])
    assert trees_code == code


def test_trees_enumerate_and_sigma(staircase_file, capsys):
    code, out, _ = run_cli(
        ["trees", "--graph", staircase_file, "--enumerate", "--sigma"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["enumeration"] == {"count": 36, "matches_tau": True}
    assert sum(term["coefficient"] for term in doc["sigma"]) == 36


def test_trees_walks_the_spanning_trees_once(staircase_file, capsys, monkeypatch):
    # with both flags the polynomial's coefficients give the count
    walk, calls = trees.enumerate_spanning_trees, []

    def counted(g, budget=None):
        calls.append(g)
        return walk(g, budget=budget)

    monkeypatch.setattr(trees, "enumerate_spanning_trees", counted)
    monkeypatch.setattr(cli, "enumerate_spanning_trees", counted)
    code, _, _ = run_cli(["trees", "--graph", staircase_file, "--enumerate", "--sigma"],
                         capsys)
    assert code == 0 and len(calls) == 1


def test_trees_enumerate_without_a_spanning_tree(tmp_path, capsys):
    # the two-edge matching: no spanning tree, an empty polynomial
    path = tmp_path / "m2.graph"
    path.write_text("bipartite 2 2\ne 1 1\ne 2 2\n")
    code, out, _ = run_cli(["trees", "--graph", str(path), "--enumerate", "--sigma"],
                           capsys)
    assert code == 0
    assert json.loads(out) == {
        "schema_version": 1, "tau": "0", "ferrers_invariant": "1/4",
        "ferrers_good": True, "enumeration": {"count": 0, "matches_tau": True},
        "sigma": [],
    }


def test_trees_stdin(monkeypatch, capsys):
    text = "bipartite 1 1\ne 1 1\n"
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(text))
    code, out, _ = run_cli(["trees", "--graph", "-"], capsys)
    assert code == 0
    assert json.loads(out)["tau"] == "1"


def test_pipe_through_processes(tmp_path):
    env = dict(os.environ)
    gen = subprocess.run(
        [sys.executable, "-m", "ferrers_lab.cli", "gen", "--partition", "1",
         "--cols", "1"],
        capture_output=True, text=True, env=env, check=True,
    )
    trees = subprocess.run(
        [sys.executable, "-m", "ferrers_lab.cli", "trees", "--graph", "-"],
        input=gen.stdout, capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(trees.stdout)["tau"] == "1"


def test_main_repeated_in_one_process_matches_fresh_runs(capsys, monkeypatch):
    # the parser is built once per process: a usage error between calls
    # leaves nothing behind, and every call matches a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["gen", "--partition", "3,3,2,1", "--format", "csv"],
        ["gen", "--partition", "3,3,2,1", "--cols", "-"],
        ["gen", "--partition", "2,1"],
        ["no-such-command"],
        ["gen", "--partition", "3,3,2,1", "--cols", "3"],
    ]
    codes = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ferrers_lab.cli", *argv],
                               capture_output=True, text=True,
                               env=dict(os.environ))
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 2, 0]
    assert cli._build_parser() is cli._build_parser()


def test_spectral_command(staircase_file, capsys):
    code, out, _ = run_cli(["spectral", "--graph", staircase_file], capsys)
    assert code == 0
    doc = json.loads(out)
    # full 7x7 adjacency eigencomputation (numpy) gives 2.8092118...
    assert abs(doc["lambda_max"] - 2.809211800167) < 1e-9
    assert len(doc["laplacian_spectrum"]) == 7
    assert doc["checks"]["sqrt_edge_bound"]["holds"] is True
    assert doc["checks"]["normalized_product"]["holds"] is True
    assert doc["checks"]["dense_cut_vertex"]["holds"] is False


def test_spectral_command_computes_each_spectrum_once(staircase_file, capsys,
                                                     monkeypatch):
    # Gram, Laplacian and normalized Laplacian: one Jacobi run each
    calls = []
    orig = spectral.jacobi_eigh
    monkeypatch.setattr(spectral, "jacobi_eigh",
                        lambda a: calls.append(len(a)) or orig(a))
    code, _, _ = run_cli(["spectral", "--graph", staircase_file], capsys)
    assert code == 0
    assert sorted(calls) == [4, 7, 7]


def test_spectral_command_builds_one_laplacian(staircase_file, capsys, monkeypatch):
    # the normalized Laplacian scales the Laplacian the report already has
    calls = []
    orig = graphs.laplacian

    def counted(g):
        calls.append(g)
        return orig(g)

    for target in (graphs, spectral):
        monkeypatch.setattr(target, "laplacian", counted)
    code, _, _ = run_cli(["spectral", "--graph", staircase_file], capsys)
    assert code == 0
    assert len(calls) == 1


def test_only_the_spectral_command_builds_eigenvectors(staircase_file, capsys,
                                                      monkeypatch):
    # the residual of `spectral` reads eigenvectors; the Laplacian spectrum
    # of `check --all` (grone-merris) reads eigenvalues only
    eigh_calls, kernel_calls = [], []
    orig_eigh, orig_kernel = spectral.jacobi_eigh, spectral._jacobi
    monkeypatch.setattr(spectral, "jacobi_eigh",
                        lambda a: eigh_calls.append(len(a)) or orig_eigh(a))
    monkeypatch.setattr(spectral, "_jacobi", lambda a, vt: kernel_calls.append(
        (len(a), vt is not None)) or orig_kernel(a, vt))
    code, _, _ = run_cli(["check", "--graph", staircase_file, "--all"], capsys)
    assert code == 0
    assert (eigh_calls, kernel_calls) == ([], [(7, False)])
    kernel_calls.clear()
    code, _, _ = run_cli(["spectral", "--graph", staircase_file], capsys)
    assert code == 0
    assert eigh_calls == [4, 7, 7]  # Gram (m = 4), Laplacian, normalized
    assert kernel_calls == [(4, True), (7, True), (7, True)]


def test_spectral_command_disconnected_skips_normalized_product(tmp_path, capsys):
    path = tmp_path / "matching.graph"
    path.write_text("bipartite 2 2\ne 1 1\ne 2 2\n")
    code, out, _ = run_cli(["spectral", "--graph", str(path)], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["normalized_product"] == {
        "skipped": "normalized spectrum requires a connected graph"
    }
    assert checks["sqrt_edge_bound"]["tight"] is False


def test_spectral_command_isolated_vertex(tmp_path, capsys):
    # only the normalized spectrum is undefined; the rest is still reported
    path = tmp_path / "star_plus_isolated.graph"
    path.write_text("bipartite 1 3\ne 1 1\n")
    code, out, _ = run_cli(["spectral", "--graph", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_max"] == 1.0
    assert doc["laplacian_spectrum"] == pytest.approx([2, 0, 0, 0], abs=1e-12)
    assert doc["normalized_spectrum"] is None
    assert doc["residual"] < 1e-12
    assert doc["checks"]["normalized_product"] == {
        "skipped": "normalized spectrum requires a connected graph"
    }
    assert doc["checks"]["sqrt_edge_bound"]["tight"] is True
    assert doc["checks"]["dense_cut_vertex"] == {"holds": False}


def test_resistance_command(staircase_file, capsys):
    code, out, _ = run_cli(
        ["resistance", "--graph", staircase_file, "--pair", "4,7"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["resistance"].count("/") == 1


def test_thm71_command(tmp_path, capsys):
    path = tmp_path / "k4.graph"
    path.write_text("general 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, out, _ = run_cli(
        ["thm71", "--graph", str(path), "--e", "1,2", "--f", "3,4"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    assert len(doc["conditions"]) == 11


def test_thm71_accepts_bipartite_files(staircase_file, capsys):
    # u1~v1 is (1,5) and u2~v2 is (2,6) in the combined numbering
    code, out, _ = run_cli(
        ["thm71", "--graph", staircase_file, "--e", "1,5", "--f", "2,6"], capsys
    )
    assert code == 0
    assert json.loads(out)["all_agree"] is True


def test_thm71_scan_command(capsys):
    code, out, _ = run_cli(["thm71-scan", "--max-n", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree_everywhere"] is True
    assert doc["graphs_checked"] == 6


@pytest.mark.parametrize("max_n", ["3", "0", "-3"])
def test_thm71_scan_below_four_vertices_is_input_error(max_n, capsys):
    # a scan with no graph to check must not report that all agree
    code, out, err = run_cli(["thm71-scan", "--max-n", max_n], capsys)
    assert code == 2 and out == ""
    assert err == "ferrers-lab: thm71 scan needs max_n >= 4, got %s\n" % max_n


def test_check_command_all(staircase_file, capsys):
    code, out, _ = run_cli(["check", "--graph", staircase_file, "--all"], capsys)
    assert code == 0
    doc = json.loads(out)
    names = [rep["name"] for rep in doc["reports"]]
    assert names == ["bozkurt", "venkataramana", "grone-merris", "eq3"]
    assert all(rep["holds"] for rep in doc["reports"])


def test_check_command_single_bound(staircase_file, capsys):
    code, out, _ = run_cli(
        ["check", "--graph", staircase_file, "--bound", "eq3"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["lhs"] == "36"
    assert doc["reports"][0]["equality"] is True


@pytest.mark.parametrize("argv, counts", [
    (["--all"], 1), (["--bound", "venkataramana"], 1), (["--bound", "eq3"], 1),
    (["--bound", "grone-merris"], 0),
], ids=["all", "venkataramana", "eq3", "grone-merris"])
def test_check_counts_tau_once_per_run(staircase_file, capsys, monkeypatch,
                                       argv, counts):
    # the three tree-count bounds share one Schur-complement tau; the
    # spectral bound needs none
    counted = []
    orig = trees._schur_tau
    monkeypatch.setattr(trees, "_schur_tau", lambda g: counted.append(g) or orig(g))
    code, _, _ = run_cli(["check", "--graph", staircase_file] + argv, capsys)
    assert code == 0
    assert len(counted) == counts


def test_tight_staircases_are_recounted_without_a_cofactor(staircase_file, capsys,
                                                          monkeypatch):
    # a staircase meets the degree-product bound, so its tree count is
    # recounted, by the product formula on its partition and never by the
    # Laplacian cofactor: not in a `trees` run, and not in the 10-vertex
    # scan, whose equality cases are all staircases
    def refuse(lap):
        raise AssertionError("a cofactor was eliminated")

    monkeypatch.setattr(trees, "tree_count", refuse)
    code, out, _ = run_cli(["trees", "--graph", staircase_file], capsys)
    assert code == 0 and json.loads(out)["ferrers_good"] is True
    code, out, _ = run_cli(["verify-ferrers-bound", "--max-vertices", "10"], capsys)
    doc = json.loads(out)
    assert code == 0 and len(doc["extremal"]) == doc["details"]["equality_ferrers"] == 271


def test_check_exits_1_on_a_failed_bound(staircase_file, capsys, monkeypatch):
    # one failed bound fails `--all`, which still writes every report;
    # a bound that holds on its own still exits 0
    monkeypatch.setitem(cli._BOUNDS, "bozkurt",
                        lambda g, t: spectral.BoundReport.exact("bozkurt", 2, 1))
    code, out, _ = run_cli(["check", "--graph", staircase_file, "--all"], capsys)
    assert code == 1
    reports = json.loads(out)["reports"]
    assert [(rep["name"], rep["holds"]) for rep in reports] == [
        ("bozkurt", False), ("venkataramana", True), ("grone-merris", True),
        ("eq3", True)]
    code, out, _ = run_cli(
        ["check", "--graph", staircase_file, "--bound", "eq3"], capsys)
    assert code == 0
    assert json.loads(out)["reports"][0]["holds"] is True


def test_verify_ferrers_bound_command(tmp_path, capsys):
    outdir = tmp_path / "graphs"
    code, out, _ = run_cli(
        ["verify-ferrers-bound", "--max-vertices", "5",
         "--emit-graphs", str(outdir)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counterexamples"] == []
    assert doc["examined"] == 10
    emitted = sorted(os.listdir(outdir))
    assert emitted and all(name.startswith("extremal") for name in emitted)
    with open(outdir / emitted[0]) as fh:
        parse_graph_file(fh.read())


def _emitted_digest(outdir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv, report, count, digest", [
    (["verify-ferrers-bound", "--max-vertices", "8"],
     "bc078dfb036af3e68fb68fcf760150d777e2c9e6b53ba67fefe13214563d2049", 71,
     "cdd9ab7858faa7710750cdfbb3357afbda142f84ed7b56c34f4056b4deb9ef91"),
    (["spectral-search", "--p", "4", "--q", "4", "--e", "9"],
     "0cfdd6b7ef996bc004a8ff8cb858eb47ceb5f850390b474712432866b5074c17", 2,
     "ca5810bc6062b6402422cb2101b0c82efa15a91754b9e7e021cc15cc2ff216d3"),
    (["degree-class", "--D", "4,3,2,2,1"],
     "88a1a7641c945bac8ec682e8d3ed068873081d7cffa17765010f4ed0ca4228a4", 1,
     "6ab1673c9909e95337fc66de750a55198f7579ceb5f5f36fc6e1d6156ee0d2df"),
    (["degree-class", "--D", "3,2,2,1,1"],
     "3e9e7f929e730a9ef1471deaead2892d1505d4a77367d8d3d4a12cc286f73836", 1,
     "c6deafbc37c62b9c0387a15103d0c1074ee90a7f5109316a0232f8117d58eb30"),
], ids=["verify-ferrers-bound-8", "spectral-search-4-4-9",
        "degree-class-4.3.2.2.1", "degree-class-3.2.2.1.1"])
def test_emitted_graph_files_byte_identical(argv, report, count, digest,
                                            tmp_path, capsys):
    # the graph files name one labeling of each class, so a change of which
    # orientation of an equal-parts class is kept shows here; the reports
    # themselves hold only canonical codes
    outdir = tmp_path / "graphs"
    _, out, _ = run_cli(argv + ["--emit-graphs", str(outdir)], capsys)
    assert _report_digest(out) == report
    assert len(os.listdir(outdir)) == count
    assert _emitted_digest(outdir) == digest


def test_verify_ferrers_bound_command_counterexample(tmp_path, capsys,
                                                     monkeypatch):
    # a class whose tau is inflated above the invariant is the one
    # counterexample: exit 1, and its graph file is emitted; the scan keys
    # classes with no more rows than columns
    target = search.canonical_code(example_staircase().transpose())
    monkeypatch.setattr(search, "_ferrers_check_one", inflate_tau_of(target))
    outdir = tmp_path / "graphs"
    code, out, _ = run_cli(
        ["verify-ferrers-bound", "--max-vertices", "7",
         "--emit-graphs", str(outdir)], capsys
    )
    assert code == 1
    assert json.loads(out)["counterexamples"] == [target.hex()]
    assert "counterexample_001.graph" not in os.listdir(outdir)
    with open(outdir / "counterexample_000.graph") as fh:
        assert search.canonical_code(parse_graph_file(fh.read())) == target


def _graph_files(outdir):
    return {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}


def test_emit_graphs_refuses_a_directory_with_graph_files(tmp_path, capsys,
                                                          monkeypatch):
    # a 6-vertex scan writes 19 files, so 52 of the 8-vertex scan's 71 would
    # outlive it; the refusal comes before any class is enumerated
    outdir = tmp_path / "graphs"
    code, _, _ = run_cli(["verify-ferrers-bound", "--max-vertices", "8",
                          "--emit-graphs", str(outdir)], capsys)
    assert code == 0
    before = _graph_files(outdir)
    assert len(before) == 71

    def grow(*args, **kwargs):
        raise AssertionError("a class was enumerated")

    monkeypatch.setattr(search, "_grow", grow)
    code, out, err = run_cli(["verify-ferrers-bound", "--max-vertices", "6",
                              "--emit-graphs", str(outdir)], capsys)
    assert (code, out) == (2, "")
    assert err == ("ferrers-lab: --emit-graphs directory %s already holds 71"
                   " graph files of an earlier search\n" % outdir)
    assert _graph_files(outdir) == before
    # so is a path that cannot be made a directory
    code, _, err = run_cli(["verify-ferrers-bound", "--max-vertices", "6",
                            "--emit-graphs", str(outdir / "extremal_000.graph")],
                           capsys)
    assert code == 2 and err.startswith("ferrers-lab: [Errno ")


@pytest.mark.parametrize("name, code", [
    ("counterexample_000.graph", 2), ("extremal_007.graph", 2),
    ("extremal.graph", 0), ("notes.txt", 0)])
def test_emit_graphs_names_it_refuses(name, code, tmp_path, capsys):
    outdir = tmp_path / "graphs"
    outdir.mkdir()
    (outdir / name).write_text("")
    assert run_cli(["degree-class", "--D", "2,1", "--emit-graphs", str(outdir)],
                   capsys)[0] == code


def test_cli_determinism_across_jobs(capsys):
    for argv in (["verify-ferrers-bound", "--max-vertices", "6"],
                 ["thm71-scan", "--max-n", "5"],
                 ["spectral-search", "--p", "4", "--q", "4", "--e", "9"],
                 ["degree-class", "--D", "3,3,2,1"],
                 # 290 and 568 classes: the pool reads more than one batch
                 ["spectral-search", "--p", "4", "--q", "6", "--e", "14"],
                 ["degree-class", "--D", "3,3,2,2,1"]):
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv + ["--jobs", "2"], capsys)
        assert _report_digest(first) == _report_digest(second), argv


def test_spectral_search_command(capsys):
    code, out, _ = run_cli(
        ["spectral-search", "--p", "3", "--q", "4", "--e", "10"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["details"]["lambda_max"] - 3.0592) <= 5e-4
    assert len(doc["extremal"]) == 1


def test_degree_class_command(capsys):
    code, out, _ = run_cli(["degree-class", "--D", "2,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["examined"] == 2
    assert doc["details"]["staircase_attains_max"] is True


def test_csv_format(staircase_file, capsys):
    code, out, _ = run_cli(
        ["trees", "--graph", staircase_file, "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "tau,36" in lines


def test_exit_code_input_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.graph")
    code, _, err = run_cli(["trees", "--graph", missing], capsys)
    assert code == 2
    assert "ferrers-lab" in err

    bad = tmp_path / "bad.graph"
    bad.write_text("bipartite 2\n")
    code, _, err = run_cli(["trees", "--graph", str(bad)], capsys)
    assert code == 2
    assert "line 1" in err


def test_oversized_header_is_budget_exit(tmp_path, capsys):
    # however large, the header is refused by the cap before any row is
    # allocated, as gen refuses the same size
    big = tmp_path / "big.graph"
    big.write_text("bipartite 99999999999999999999 2\n")
    code, out, err = run_cli(["trees", "--graph", str(big)], capsys)
    assert (code, out) == (3, "")
    assert err == ("ferrers-lab: budget exceeded: graph file of %d vertices"
                   " exceeds the cap of 100\n" % (10 ** 20 + 1))
    # a negative size may not offset a huge one under the cap
    big.write_text("bipartite %d %d\n" % (10 ** 20, 3 - 10 ** 20))
    code, out, err = run_cli(["trees", "--graph", str(big)], capsys)
    assert (code, out) == (3, "")
    assert err.endswith("graph file of %d vertices exceeds the cap of 100\n"
                        % 10 ** 20)


@pytest.mark.parametrize("header", ["general 6", "bipartite 2 4", "bipartite 5 1"])
def test_graph_file_over_the_vertex_cap_is_budget(header, tmp_path, capsys,
                                                  monkeypatch):
    # refused on the header, before any graph is built; the cap is
    # lowered here, so no test header ever allocates
    monkeypatch.setattr(graphs, "GRAPH_FILE_VERTICES", 5)
    built = []
    monkeypatch.setattr(graphs.Graph, "__new__", lambda cls, *args: built.append(args))
    monkeypatch.setattr(graphs.BipartiteGraph, "__new__",
                        lambda cls, *args: built.append(args))
    path = tmp_path / "big.graph"
    path.write_text(header + "\n1 2\n")
    for command in ("trees", "spectral", "check", "resistance"):
        argv = [command, "--graph", str(path)]
        argv += {"check": ["--all"], "resistance": ["--pair", "1,2"]}.get(command, [])
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, ""), command
        assert err == ("ferrers-lab: budget exceeded: graph file of 6 vertices"
                       " exceeds the cap of 5\n")
    assert built == []


def test_graph_file_at_the_vertex_cap_is_admitted(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "GRAPH_FILE_VERTICES", 5)
    path = tmp_path / "cap.graph"
    path.write_text("bipartite 2 3\ne 1 1\ne 1 2\ne 2 2\ne 2 3\n")
    code, out, _ = run_cli(["trees", "--graph", str(path)], capsys)
    assert code == 0 and '"tau": "1"' in out


def test_exit_code_budget(capsys):
    code, _, err = run_cli(["verify-ferrers-bound", "--max-vertices", "11"], capsys)
    assert code == 3
    assert "budget" in err


def test_thm71_scan_admission(capsys):
    # 8 vertices would run for minutes: refused at once, naming the cap
    start = time.monotonic()
    code, out, err = run_cli(["thm71-scan", "--max-n", "8"], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 3 and out == ""
    assert err == ("ferrers-lab: budget exceeded: thm71 scan of 8 vertices "
                   "exceeds the budget of 7\n")


def test_thm71_scan_budget_flag(capsys):
    code, _, err = run_cli(["thm71-scan", "--max-n", "5", "--budget", "4"], capsys)
    assert code == 3 and "budget of 4" in err
    code, out, _ = run_cli(["thm71-scan", "--max-n", "4", "--budget", "4"], capsys)
    assert code == 0 and json.loads(out)["max_n"] == 4


def test_budget_env_var_is_ignored(capsys, monkeypatch):
    # no environment variable raises a cap: 9 vertices would take hours
    monkeypatch.setenv("FERRERS_LAB_BUDGET", "24")
    start = time.monotonic()
    code, out, err = run_cli(["thm71-scan", "--max-n", "9"], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 3 and out == ""
    assert err == ("ferrers-lab: budget exceeded: thm71 scan of 9 vertices "
                   "exceeds the budget of 7\n")


def _flip_condition_i_on_c4(orig):
    # the 4-cycle is the one 4-vertex graph with four edges, and (1,3),(2,4)
    # is its first admissible pair
    def flipped(ctx, e, f):
        report = orig(ctx, e, f)
        if len(ctx.graph.edges) == 4 and e == (1, 3):
            conditions = {**report.conditions, "i": not report.conditions["i"]}
            return report._replace(conditions=conditions, all_agree=False)
        return report
    return flipped


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patch only when they fork")
def test_thm71_scan_failure_witnesses_cross_the_pool(capsys, monkeypatch):
    # a failing pair's witnesses travel from the workers as raw rationals
    # and are rendered once, in the parent
    monkeypatch.setattr(resistance_module, "_equivalence",
                        _flip_condition_i_on_c4(resistance_module._equivalence))
    outputs = {}
    for fmt in ("json", "csv"):
        for jobs in ("1", "2"):
            code, out, err = run_cli(["thm71-scan", "--max-n", "4", "--jobs", jobs,
                                      "--format", fmt], capsys)
            assert code == 1 and err == ""
            outputs[fmt, jobs] = out
        assert outputs[fmt, "1"] == outputs[fmt, "2"]
    [failure] = json.loads(outputs["json", "1"])["failures"]
    assert (failure["e"], failure["f"], failure["all_agree"]) == ([1, 3], [2, 4], False)
    rational = re.compile(r"-?\d+(/\d+)?")
    values = [v for entries in failure["witnesses"].values()
              for w in entries for v in w["values"]]
    assert len(failure["witnesses"]) == 8 and len(values) == 24
    assert all(isinstance(v, str) and rational.fullmatch(v) for v in values)
    assert "-1/8" in values and "-2" in values
    rows = [line.split(",", 1) for line in outputs["csv", "1"].splitlines()[1:]]
    csv_values = [v for key, v in rows if key.startswith("failures[0].witnesses.")
                  and ".values[" in key]
    assert csv_values == values


def _assert_code_cap_exit(argv, capsys):
    start = time.monotonic()
    code, out, err = run_cli(argv, capsys)
    assert time.monotonic() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("ferrers-lab: budget exceeded: ")
    assert "12-column cap" in err and err.count("\n") == 1


def test_scan_over_code_cap_is_budget_exit(capsys):
    # the budget admits 14 vertices, but the columns range up to 13 > 12
    _assert_code_cap_exit(
        ["verify-ferrers-bound", "--max-vertices", "14", "--budget", "14"], capsys
    )


@pytest.mark.parametrize("degrees", ["4,4,4,4", "4,4,4,4,4"])
def test_degree_class_over_code_cap_is_budget_exit(degrees, capsys):
    # m*d1 is within the budget, but the columns range up to sum(D) > 12
    _assert_code_cap_exit(["degree-class", "--D", degrees], capsys)


def test_spectral_search_over_code_cap_is_budget_exit(capsys):
    # the budget admits p*q = 26, but q = 13 > 12 columns
    _assert_code_cap_exit(
        ["spectral-search", "--p", "2", "--q", "13", "--e", "5", "--budget", "100"],
        capsys,
    )


def test_exit_code_budget_reports_enumeration_progress(capsys, monkeypatch):
    monkeypatch.setattr(search, "CANDIDATE_GUARD", 500)
    code, _, err = run_cli(["verify-ferrers-bound", "--max-vertices", "8"], capsys)
    assert code == 3 and err.count("\n") == 1
    head, _, tail = err.partition(" (progress: ")
    assert "more than 500 candidates" in head
    assert tail.endswith(")\n")
    progress = json.loads(tail[:-2])
    assert list(progress) == ["candidates", "classes", "columns", "nodes", "rows_done"]
    assert progress["candidates"] == 501


def test_exit_code_budget_stops_a_runaway_canonizer_search(capsys):
    # D = 1^12 is admitted (m*d1 = 12, twelve columns at most), but its
    # permutation matrices make the canonizer search every labeling of
    # their rows; the node guard stops it within seconds, with its progress
    # (about 6.5-7.5 s of CPU time: two searches of 623,529 nodes, which
    # D = 1^9 needs, finish before the third trips the guard)
    start = time.process_time()
    code, out, err = run_cli(["degree-class", "--D", ",".join(["1"] * 12)], capsys)
    assert time.process_time() - start < 10
    assert code == 3 and out == "" and err.count("\n") == 1
    head, _, tail = err.partition(" (progress: ")
    assert head == ("ferrers-lab: budget exceeded: a canonizer search visited"
                    " more than %d nodes" % budget.NODE_GUARD)
    progress = json.loads(tail[:-2])
    assert list(progress) == ["candidates", "classes", "columns", "nodes", "rows_done"]
    # the search is charged to the enumeration's counter, which knows
    # where growth stopped
    assert progress["nodes"] > budget.NODE_GUARD
    assert progress["columns"] >= 1 and progress["candidates"] >= 1


def test_exit_code_general_graph_where_bipartite_needed(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("general 3\n1 2\n2 3\n")
    code, _, err = run_cli(["trees", "--graph", str(path)], capsys)
    assert code == 2
    assert "bipartite" in err


def _double_schur_minors(orig):
    # the second route of a bipartite resistance: the minor dropping both
    # vertices, the one determinant the resistance module takes itself
    return lambda rows: 2 * orig(rows)


def _corrupt_solve(orig):
    # the grounded column of a one-off resistance, caught by its residual,
    # or the grounded adjugate of thm71, caught by the Moore-Penrose
    # certificate
    def broken(rows, right):
        d, y = orig(rows, right)
        y[0][0] += 1
        return d, y
    return broken


def _inflate_lambda_max(orig):
    # the sqrt-edge check reads lambda_max from the spectrum report
    return lambda g: orig(g)._replace(lambda_max=orig(g).lambda_max + 1)


@pytest.mark.parametrize("argv, target, name, breaker", [
    (["resistance", "--pair", "4,7"], resistance_module, "det_int",
     _double_schur_minors),
    (["resistance", "--pair", "4,7"], resistance_module, "solve_int", _corrupt_solve),
    (["thm71", "--e", "1,5", "--f", "2,6"], exactla, "solve_int", _corrupt_solve),
    (["trees", "--enumerate"], trees, "tau", lambda orig: lambda g: orig(g) + 1),
    (["spectral"], cli, "spectrum_report", _inflate_lambda_max),
], ids=["resistance-routes", "kernel-certificate", "thm71-kernel-certificate",
        "tree-enumeration", "sqrt-edge-bound"])
def test_exit_code_internal_check(staircase_file, capsys, monkeypatch,
                                  argv, target, name, breaker):
    # a failed cross-check is a defect, reported apart from exit 1 (counterexample)
    monkeypatch.setattr(target, name, breaker(getattr(target, name)))
    code, _, err = run_cli([argv[0], "--graph", staircase_file] + argv[1:], capsys)
    assert code == 4
    assert err.startswith("ferrers-lab: internal check failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_resistance_command_builds_no_ginverse(staircase_file, capsys, monkeypatch):
    argv = ["resistance", "--graph", staircase_file, "--pair", "4,7"]
    code, usual, _ = run_cli(argv, capsys)
    assert code == 0

    def refuse(*args, **kwargs):
        raise RuntimeError("a g-inverse was built")

    for target in (resistance_module, exactla):
        monkeypatch.setattr(target, "moore_penrose_laplacian", refuse)
        monkeypatch.setattr(target, "bordered_ginverse", refuse)
        monkeypatch.setattr(target, "_grounded_adjugate", refuse)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["resistance"] == json.loads(usual)["resistance"]


def _schur_overcount(orig):
    def broken(g):
        t, du, dv = orig(g)
        return t + 1, du, dv
    return broken


def _schur_fake_equality(orig):
    # one class on 6 vertices has tau 15 below an integer invariant 16
    def broken(g):
        t, du, dv = orig(g)
        inv, rem = divmod(math.prod(du) * math.prod(dv), g.m * g.n)
        return (t if rem else inv), du, dv
    return broken


@pytest.mark.parametrize("breaker", [_schur_overcount, _schur_fake_equality],
                         ids=["overcount", "fake-equality"])
def test_exit_code_internal_check_schur_tau(capsys, monkeypatch, breaker):
    # a wrong Schur-complement tau that makes an equality case or a
    # counterexample is caught by the scan's cofactor cross-check and
    # reported as a defect (exit 4), never as a counterexample (exit 1)
    monkeypatch.setattr(trees, "_schur_tau", breaker(trees._schur_tau))
    code, out, err = run_cli(["verify-ferrers-bound", "--max-vertices", "6"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("ferrers-lab: internal check failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


_TAU_15_BELOW_16 = "bipartite 3 3\ne 1 1\ne 1 2\ne 2 1\ne 2 3\ne 3 1\ne 3 2\ne 3 3\n"


@pytest.mark.parametrize("argv", [["trees"], ["check", "--bound", "eq3"],
                                  ["check", "--all"]],
                         ids=["trees", "check-eq3", "check-all"])
@pytest.mark.parametrize("breaker, graph", [
    (_schur_overcount, "EX"),               # tau 37 above the invariant 36
    (_schur_overcount, _TAU_15_BELOW_16),   # tau 16 on the invariant 16
    (_schur_fake_equality, _TAU_15_BELOW_16),
], ids=["overcount-failing", "overcount-tight", "fake-equality-tight"])
def test_exit_code_internal_check_schur_tau_per_graph(staircase_file, tmp_path, capsys,
                                                      monkeypatch, argv, breaker, graph):
    # the per-graph commands decide the degree-product bound through the
    # same cofactor cross-check as the scan: a wrong Schur-complement tau
    # that makes the bound tight or fail is a defect (exit 4), never a
    # counterexample (exit 1)
    if graph == "EX":
        path = staircase_file
    else:
        path = tmp_path / "tau15.graph"
        path.write_text(graph)
    monkeypatch.setattr(trees, "_schur_tau", breaker(trees._schur_tau))
    code, out, err = run_cli([argv[0], "--graph", str(path)] + argv[1:], capsys)
    assert code == 4 and out == ""
    assert err.startswith("ferrers-lab: internal check failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_code_internal_check_staircase_count(capsys, monkeypatch):
    # a degree class without exactly one staircase member is a defect
    # (exit 4), never a beaten staircase (exit 1)
    monkeypatch.setattr(search, "is_ferrers", lambda g: False)
    code, out, err = run_cli(["degree-class", "--D", "3,2,2"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("ferrers-lab: internal check failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_budget_flag_override(staircase_file, capsys):
    code, _, err = run_cli(
        ["trees", "--graph", staircase_file, "--enumerate", "--budget", "5"], capsys
    )
    assert code == 3
    assert "budget" in err
    code, _, _ = run_cli(["trees", "--graph", staircase_file, "--enumerate",
                          "--budget", "1000000"], capsys)
    assert code == 0


def test_budget_flag_leaves_candidate_guard_alone(capsys):
    # a value meant as a p*q cap must not stop the enumeration
    argv = ["spectral-search", "--p", "3", "--q", "4", "--e", "10"]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    code, capped, err = run_cli(argv + ["--budget", "30"], capsys)
    assert code == 0 and err == ""
    plain, capped = json.loads(plain), json.loads(capped)
    plain.pop("elapsed")
    capped.pop("elapsed")
    assert capped == plain


@pytest.mark.parametrize("flag, message", [
    ("--jobs", "jobs must be at least 1"),
    ("--budget", "budget must be positive"),
])
def test_nonpositive_jobs_or_budget_is_usage_error(flag, message, capsys):
    code, out, err = run_cli(
        ["verify-ferrers-bound", "--max-vertices", "5", flag, "0"], capsys
    )
    assert (code, out, err) == (2, "", "ferrers-lab: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["gen", "--partition", "3,3,2,1"],
    ["trees", "--graph", "EX"],
], ids=["gen", "trees"])
def test_out_into_missing_directory_is_input_error(argv, staircase_file, tmp_path,
                                                   capsys):
    target = tmp_path / "missing" / "report"
    argv = [staircase_file if arg == "EX" else arg for arg in argv]
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ferrers-lab: ") and str(target) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ["trees", "--graph", "DIR"],
    ["gen", "--partition", "2,1", "--out", "DIR"],
    ["degree-class", "--D", "2,1", "--emit-graphs", "FILE"],
], ids=["graph-is-directory", "out-is-directory", "emit-graphs-is-file"])
def test_unusable_path_is_input_error(argv, tmp_path, capsys):
    paths = {"DIR": tmp_path / "dir", "FILE": tmp_path / "file"}
    paths["DIR"].mkdir()
    paths["FILE"].write_text("")
    argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("ferrers-lab: [Errno ") and str(tmp_path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_oserror_without_a_path_propagates(monkeypatch):
    # e.g. a worker pool that cannot fork: not an input error
    def fail(args):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setitem(cli._COMMANDS, "gen", fail)
    with pytest.raises(OSError):
        cli.main(["gen", "--partition", "2,1"])


def test_empty_degree_sequence_is_usage_error(capsys):
    code, out, err = run_cli(["degree-class", "--D="], capsys)
    assert (code, out, err) == (2, "", "ferrers-lab: degree sequence must be nonempty\n")


def test_gen_zero_cols_is_usage_error(capsys):
    code, out, err = run_cli(["gen", "--partition", "3,2", "--cols", "0"], capsys)
    assert (code, out, err) == (
        2, "", "ferrers-lab: largest part 3 exceeds column count 0\n")
