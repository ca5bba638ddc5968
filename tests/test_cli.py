import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from legcordial.cli import main
from legcordial.graph import graph_from_json, make_complete, make_cycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_path(capsys):
    code, out, err = run(capsys, "gen", "path:4")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 4
    assert len(obj["edges"]) == 3


def test_gen_cycle_too_small_is_usage_error(capsys):
    code, out, err = run(capsys, "gen", "cycle:2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage-error"


def test_gen_complete(capsys):
    code, out, _ = run(capsys, "gen", "complete:4")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 6


def test_gen_edges_spec(capsys):
    code, out, _ = run(capsys, "gen", "edges:0-1,1-2")
    assert code == 0
    assert json.loads(out)["order"] == 3


def test_op_cartesian_square(capsys):
    code, out, _ = run(capsys, "op", "cart", "path:2", "path:2")
    assert code == 0
    obj = json.loads(out)
    g = graph_from_json(obj)
    assert (g.order, g.size) == (4, 4)
    assert obj["connected"] is True
    assert "convention" in obj


def test_op_tensor_disconnected_warning(capsys):
    code, out, _ = run(capsys, "op", "tensor", "path:2", "path:2")
    assert code == 0
    obj = json.loads(out)
    assert obj["connected"] is False
    assert obj["warnings"] == ["result is disconnected"]


def test_op_strong_k4(capsys):
    code, out, _ = run(capsys, "op", "strong", "complete:2", "complete:2")
    assert code == 0
    assert graph_from_json(json.loads(out)) == make_complete(4)


def test_op_missing_file_is_io_error(capsys):
    code, out, err = run(capsys, "op", "cart", "no-such-file.json", "path:2")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "io-error"


def test_verify_of_a_construct_bundle_takes_the_linear_pass(tmp_path, capsys, monkeypatch):
    from legcordial import graph

    reached = []

    def checked_path(order, edges):
        reached.append(order)
        raise AssertionError("canonical edges reached the checked path")

    monkeypatch.setattr(graph, "_canonicalize", checked_path)
    code, out, _ = run(
        capsys, "construct", "strong", "--g1", "cycle:9", "--lab-g1", "1,2,3,4,5,8,6,7,9",
        "--g2", "path:20", "--p", "3", "--format", "json",
    )
    assert code == 0
    bundle = json.loads(out)
    graph_file, labeling_file = tmp_path / "graph.json", tmp_path / "labeling.json"
    graph_file.write_text(json.dumps(bundle["graph"]))
    labeling_file.write_text(json.dumps(bundle["labeling"]))
    code, out, _ = run(capsys, "verify", "--g", str(graph_file), "--labeling", str(labeling_file))
    assert code == 0
    assert json.loads(out) == bundle["verified"]
    assert reached == []


def test_graph_round_trip(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "cycle:5", "--out", str(path))
    assert code == 0
    reread = graph_from_json(json.loads(path.read_text()))
    assert reread == make_cycle(5)
    # feed the file back through another command
    code, out, _ = run(capsys, "op", "cart", str(path), "path:2")
    assert code == 0


def test_verify_c3_identity(capsys):
    code, out, _ = run(capsys, "verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3")
    assert code == 0
    assert json.loads(out) == {"e0": 2, "e1": 1, "cordial": True}


def test_verify_labeling_file(tmp_path, capsys):
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"p": 3, "assign": [1, 2, 3]}))
    code, out, _ = run(capsys, "verify", "--g", "cycle:3", "--labeling", str(lab))
    assert code == 0
    assert json.loads(out)["cordial"] is True


def test_verify_dot_output_colors_edges(capsys):
    code, out, _ = run(
        capsys, "verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3", "--format", "dot"
    )
    assert code == 0
    assert "royalblue" in out and "crimson" in out


def test_verify_disconnected_is_admission_error(capsys):
    code, _, err = run(
        capsys, "verify", "--g", "edges:0-1,2-3", "--labeling", "1,2,3,4", "--p", "3"
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "admission-error"


def test_legendre(capsys):
    code, out, _ = run(capsys, "legendre", "2", "3")
    assert code == 0
    assert json.loads(out)["symbol"] == -1
    code, out, _ = run(capsys, "legendre", "2", "3", "--format", "table")
    assert out.strip() == "-1"


def test_construct_corona_path(capsys):
    code, out, _ = run(capsys, "construct", "corona-path", "--g", "cycle:3", "--p", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["predicted"] == {"e0": 6, "e1": 6}
    assert obj["verified"] == {"e0": 6, "e1": 6, "cordial": True}
    assert obj["labeling"]["assign"][6:9] == [2, 5, 8]


def test_construct_hypothesis_violation_exit_3(capsys):
    code, _, err = run(capsys, "construct", "corona-path", "--g", "cycle:3", "--p", "7")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "hypothesis-violation"


def test_construct_auto_search(capsys):
    code, out, _ = run(
        capsys, "construct", "cart", "--g1", "cycle:5", "--g2", "cycle:4", "--p", "5", "--auto"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"]["e0"] == 20 and obj["verified"]["e1"] == 20


def test_construct_auto_search_none_exit_4(capsys):
    code, _, err = run(
        capsys, "construct", "tensor", "--g1", "cycle:3", "--g2", "cycle:4", "--p", "3", "--auto"
    )
    assert code == 4
    assert json.loads(err)["error"]["type"] == "search-none"


def test_construct_with_explicit_labels(capsys):
    code, out, _ = run(
        capsys,
        "construct", "join",
        "--g1", "path:3", "--g2", "complete:1",
        "--lab-g1", "2,1,3", "--lab-g2", "1",
        "--p", "3",
    )
    assert code == 0
    assert json.loads(out)["verified"] == {"e0": 3, "e1": 2, "cordial": True}


def test_construct_recipe_file(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps(
            {
                "theorem": "join",
                "p": 3,
                "g1": "path:3",
                "g2": "complete:1",
                "lab_g1": [2, 1, 3],
                "lab_g2": [1],
            }
        )
    )
    code, out, _ = run(capsys, "construct", "--recipe", str(recipe))
    assert code == 0
    assert json.loads(out)["verified"]["cordial"] is True


@pytest.mark.parametrize(
    "obj",
    [
        {"order": 3, "edges": [[0, None]]},
        {"order": 3, "edges": 5},
        {"order": 3, "edges": None},
        {"order": 3, "edges": [[0, 1]], "names": 5},
        {"order": None, "edges": [[0, 1]]},
    ],
    ids=["null-endpoint", "int-edges", "null-edges", "int-names", "null-order"],
)
@pytest.mark.parametrize("command", ["verify", "search"])
def test_malformed_graph_file_is_usage_error(tmp_path, capsys, obj, command):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    argv = ["--labeling", "1,2,3"] if command == "verify" else []
    code, out, err = run(capsys, command, "--g", str(path), "--p", "3", *argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (2, "usage-error")
    assert error["message"].startswith("malformed graph JSON: ")


@pytest.mark.parametrize("obj", [{"p": 3}, [1, 2], {"theorem": 3, "p": 3}])
def test_construct_malformed_recipe_is_usage_error(tmp_path, capsys, obj):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(obj))
    code, out, err = run(capsys, "construct", "--recipe", str(recipe))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage-error"
    assert error["message"].startswith("recipe JSON needs 'theorem' and 'p': ")


def test_search_found(capsys):
    code, out, _ = run(capsys, "search", "--g", "cycle:3", "--p", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"] == "found" and len(obj["labeling"]) == 3


def test_search_none_exit_4(capsys):
    code, out, _ = run(capsys, "search", "--g", "complete:4", "--p", "3", "--mode", "prove-none")
    assert code == 4
    assert json.loads(out)["outcome"] == "none"


def test_search_count_all(capsys):
    code, out, _ = run(capsys, "search", "--g", "cycle:3", "--p", "3", "--mode", "count-all")
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_search_budget_exhausted_exit_5(capsys):
    # the proof needs 4 nodes
    code, out, _ = run(
        capsys,
        "search", "--g", "complete:4", "--p", "3",
        "--mode", "prove-none", "--budget-nodes", "3",
    )
    assert code == 5
    assert json.loads(out) == {"outcome": "exhausted", "nodes": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--g", "complete:4", "--p", "3", "--mode", "prove-none", "--jobs", "2"),
        ("construct", "corona-path", "--g", "cycle:3", "--p", "3", "--jobs", "2"),
        ("search", "--g", "cycle:5", "--p", "x"),
    ],
)
def test_usage_errors_are_one_json_object(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (2, "usage-error")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "-h"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert "--budget-nodes" in captured.out


def test_search_complete12_prove_none_exit_4(capsys):
    # what was a 2 M node budget overrun: the chain of K12 left 4095 nodes,
    # and its label ceilings leave the one labeling 1..12
    code, out, _ = run(
        capsys, "search", "--g", "complete:12", "--p", "13", "--mode", "prove-none"
    )
    assert code == 4
    assert json.loads(out) == {"outcome": "none", "nodes": 12}


def test_search_cycle10_p11_count_all_exit_0(capsys):
    # 8.2 M nodes, past the 2 M default budget (exit 5), before the chain
    code, out, _ = run(
        capsys, "search", "--g", "cycle:10", "--p", "11", "--mode", "count-all"
    )
    assert code == 0
    obj = json.loads(out)
    assert (obj["outcome"], obj["count"]) == ("found", 845920)


def test_construct_auto_parity_none_exit_4(capsys):
    # the tensor window has the wrong parity for C11, so no search runs
    code, out, err = run(
        capsys, "construct", "tensor", "--g1", "cycle:11", "--g2", "cycle:3", "--p", "11", "--auto"
    )
    assert code == 4 and out == ""
    assert json.loads(err)["error"]["type"] == "search-none"


# Each call sets flags the one before it did not, so a parser that kept state
# between calls would show up as a difference from separate processes.
SEQUENCE = [
    ("search", "--g", "complete:4", "--p", "3", "--mode", "prove-none", "--budget-nodes", "3"),
    ("search", "--g", "cycle:5", "--p", "5", "--format", "table"),
    ("gen", "path:4", "--format", "table"),
    ("construct", "corona-path", "--g", "path:2", "--p", "3"),
    ("verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3"),
    ("legendre", "2", "7"),
]


def test_main_reuses_one_parser(capsys):
    in_process = [run(capsys, *argv) for argv in SEQUENCE]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    separate = []
    for argv in SEQUENCE:
        proc = subprocess.run(
            [sys.executable, "-m", "legcordial", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    with pytest.raises(SystemExit) as exc:
        main(["construct", "-h"])
    assert exc.value.code == 0
    assert "--auto" in capsys.readouterr().out


def test_search_diff_objective(capsys):
    code, out, _ = run(
        capsys, "search", "--g", "cycle:5", "--p", "5", "--objective", "diff:1"
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "found"


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LEGCORDIAL_BUDGET_NODES", "3")  # the proof needs 4
    code, out, _ = run(capsys, "search", "--g", "complete:4", "--p", "3", "--mode", "prove-none")
    assert code == 5
    assert json.loads(out) == {"outcome": "exhausted", "nodes": 3}


def test_table_output_is_not_json(capsys):
    code, out, _ = run(capsys, "gen", "path:3", "--format", "table")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "legcordial", "legendre", "2", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["symbol"] == 1


H7_SPEC = "edges:7:0-6,1-5,2-4,1-6,2-5,3-6,4-5"


@pytest.mark.parametrize(
    "theorem,g1,g2,p",
    [
        ("join", "path:3", "complete:1", "3"),
        ("corona", "path:2", "edges:3:0-1", "3"),
        ("lex", "cycle:3", H7_SPEC, "7"),
        ("cart", "cycle:5", "cycle:4", "5"),
        ("tensor", "path:3", "cycle:3", "3"),
        ("strong", "cycle:9", "path:4", "3"),
    ],
)
def test_construct_without_labels_needs_auto(capsys, theorem, g1, g2, p):
    code, out, err = run(capsys, "construct", theorem, "--g1", g1, "--g2", g2, "--p", p)
    assert code == 2 and out == ""
    assert "pass them or use --auto" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv,tally",
    [
        (("lex", "--g1", "cycle:3", "--g2", H7_SPEC, "--lab-g2", "1,2,3,4,5,6,7", "--p", "7"),
         {"e0": 84, "e1": 84, "cordial": True}),
        (("cart", "--g1", "cycle:5", "--g2", "cycle:4", "--lab-g1", "2,1,3,5,4", "--p", "5"),
         {"e0": 20, "e1": 20, "cordial": True}),
    ],
)
def test_construct_with_only_the_needed_labels_skips_search(capsys, monkeypatch, argv, tally):
    from legcordial import cli

    def no_search(*args, **kwargs):
        raise AssertionError("base-labeling search must not run")

    monkeypatch.setattr(cli, "find_base_labelings", no_search)
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert json.loads(out)["verified"] == tally


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("gen", "path:4"), {"order": 4, "edges": [[0, 1], [1, 2], [2, 3]]}),
        (("op", "tensor", "path:2", "path:2"),
         {"order": 4, "edges": [[0, 3], [1, 2]], "convention": "(i, j) -> i*|V(g2)| + j",
          "connected": False, "warnings": ["result is disconnected"]}),
        (("verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3"),
         {"e0": 2, "e1": 1, "cordial": True}),
        (("search", "--g", "cycle:3", "--p", "3", "--mode", "count-all"),
         {"outcome": "found", "nodes": 3, "labeling": [1, 2, 3], "count": 6}),
        (("construct", "corona-path", "--g", "path:2", "--p", "3"),
         {"theorem": "corona-path", "p": 3,
          "graph": {"order": 6, "edges": [[0, 1], [0, 4], [1, 4], [2, 3], [2, 5], [3, 5], [4, 5]]},
          "labeling": {"p": 3, "assign": [3, 1, 6, 4, 2, 5]},
          "predicted": {"e0": 4, "e1": 3}, "verified": {"e0": 4, "e1": 3, "cordial": True}}),
    ],
    ids=["gen", "op", "verify", "search", "construct"],
)
def test_json_output_is_one_line(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line) == expected


def test_verify_output_bytes(capsys):
    _, out, _ = run(capsys, "verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3")
    assert out == '{"e0": 2, "e1": 1, "cordial": true}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "complete:30000"),  # 449985000 edges
        ("op", "lex", "complete:300", "complete:300"),  # 4049955000 edges
    ],
)
def test_oversized_graphs_are_refused_before_allocation(argv):
    # Under a 600 MB address-space limit, building either graph would end in
    # a MemoryError traceback; the closed-form size is refused first.
    import resource
    import subprocess
    import sys

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))

    proc = subprocess.run(
        [sys.executable, "-m", "legcordial", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (2, "usage-error")
    assert "exceeds the supported bound 2000000" in error["message"]
