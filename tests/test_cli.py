import dataclasses
import importlib
import json
import os
import subprocess
import sys
import time

import pytest

from ferrers_lab import cli, exactla, parse_graph_file, search, spectral, trees

from conftest import example_staircase

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


def test_trees_enumerate_and_sigma(staircase_file, capsys):
    code, out, _ = run_cli(
        ["trees", "--graph", staircase_file, "--enumerate", "--sigma"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["enumeration"] == {"count": 36, "matches_tau": True}
    assert sum(term["coefficient"] for term in doc["sigma"]) == 36


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


def test_cli_determinism_across_jobs(capsys):
    _, first, _ = run_cli(["verify-ferrers-bound", "--max-vertices", "6"], capsys)
    _, second, _ = run_cli(
        ["verify-ferrers-bound", "--max-vertices", "6", "--jobs", "2"], capsys
    )
    first = json.loads(first)
    second = json.loads(second)
    first.pop("elapsed")
    second.pop("elapsed")
    assert first == second


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


def test_exit_code_budget(capsys):
    code, _, err = run_cli(["verify-ferrers-bound", "--max-vertices", "11"], capsys)
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("degrees", ["4,4,4,4", "4,4,4,4,4"])
def test_degree_class_over_code_cap_is_budget_exit(degrees, capsys):
    # m*d1 is within the budget, but the columns range up to sum(D) > 12
    start = time.monotonic()
    code, out, err = run_cli(["degree-class", "--D", degrees], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("ferrers-lab: budget exceeded: ")
    assert "12-column cap" in err and err.count("\n") == 1


def test_exit_code_budget_reports_enumeration_progress(capsys, monkeypatch):
    monkeypatch.setattr(search, "CANDIDATE_GUARD", 500)
    code, _, err = run_cli(["verify-ferrers-bound", "--max-vertices", "8"], capsys)
    assert code == 3 and err.count("\n") == 1
    head, _, tail = err.partition(" (progress: ")
    assert "more than 500 candidates" in head
    assert tail.endswith(")\n")
    progress = json.loads(tail[:-2])
    assert list(progress) == ["candidates", "classes", "columns", "rows_done"]
    assert progress["candidates"] == 501


def test_exit_code_general_graph_where_bipartite_needed(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("general 3\n1 2\n2 3\n")
    code, _, err = run_cli(["trees", "--graph", str(path)], capsys)
    assert code == 2
    assert "bipartite" in err


def _double_two_vertex_minors(orig):
    return lambda self, drop: orig(self, drop) * (2 if len(drop) == 2 else 1)


def _corrupt_adjugate(orig):
    def broken(rows):
        d, adj = orig(rows)
        adj[0][0] += 1
        return d, adj
    return broken


def _inflate_lambda_max(orig):
    # the sqrt-edge check reads lambda_max from the spectrum report
    return lambda g: dataclasses.replace(orig(g), lambda_max=orig(g).lambda_max + 1)


@pytest.mark.parametrize("argv, target, name, breaker", [
    (["resistance", "--pair", "4,7"], resistance_module._GraphCtx, "minor_det",
     _double_two_vertex_minors),
    (["resistance", "--pair", "4,7"], exactla, "det_adj_int", _corrupt_adjugate),
    (["trees", "--enumerate"], trees, "tau", lambda orig: lambda g: orig(g) + 1),
    (["spectral"], cli, "spectrum_report", _inflate_lambda_max),
], ids=["resistance-routes", "kernel-certificate", "tree-enumeration", "sqrt-edge-bound"])
def test_exit_code_internal_check(staircase_file, capsys, monkeypatch,
                                  argv, target, name, breaker):
    # a failed cross-check is a defect, reported apart from exit 1 (counterexample)
    monkeypatch.setattr(target, name, breaker(getattr(target, name)))
    code, _, err = run_cli([argv[0], "--graph", staircase_file] + argv[1:], capsys)
    assert code == 4
    assert err.startswith("ferrers-lab: internal check failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_budget_env_override(staircase_file, capsys, monkeypatch):
    monkeypatch.setenv("FERRERS_LAB_BUDGET", "5")
    code, _, err = run_cli(
        ["trees", "--graph", staircase_file, "--enumerate"], capsys
    )
    assert code == 3
    assert "budget" in err
    monkeypatch.setenv("FERRERS_LAB_BUDGET", "1000000")
    code, _, _ = run_cli(["trees", "--graph", staircase_file, "--enumerate"], capsys)
    assert code == 0
