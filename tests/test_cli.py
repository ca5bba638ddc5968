import contextlib
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from legcordial import cli
from legcordial.cli import main, parse_family
from legcordial.constructors import (
    ConnectivityViolation,
    HypothesisViolation,
    balance_form,
    construct_corona_path,
    construct_kp_tensor,
    normalize_theorem,
)
from legcordial.graph import graph_from_json, graph_to_json, is_connected, make_complete, make_cycle
from legcordial.labeling import labeling_to_json, tally_report

from oracles import brute_tally


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


def test_graph_file_over_max_size_is_refused(tmp_path, capsys, monkeypatch):
    from legcordial import graph

    monkeypatch.setattr(graph, "MAX_SIZE", 5)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps({"order": 10, "edges": [[i, i + 1] for i in range(9)]}))
    labeling_file = tmp_path / "labeling.json"
    labeling_file.write_text(json.dumps({"p": 3, "assign": list(range(1, 11))}))
    for argv in (
        ("verify", "--g", str(graph_file), "--labeling", str(labeling_file)),
        ("search", "--g", str(graph_file), "--p", "3"),
        ("gen", "path:10"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "usage-error",
            "code": 2,
            "message": "graph size 9 exceeds the supported bound 5",
        }


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


def test_verify_refuses_a_p_that_contradicts_the_labeling_file(tmp_path, capsys):
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"p": 5, "assign": [1, 2, 3]}))
    argv = ("verify", "--g", "cycle:3", "--labeling", str(lab))
    message = _one_usage_error(*run(capsys, *argv, "--p", "3"))
    assert message == "--p 3 contradicts the labeling file's p = 5"
    # an equal --p, or none, verifies mod 5; inline labels take --p as given
    mod5 = run(capsys, *argv)
    assert mod5 == run(capsys, *argv, "--p", "5")
    assert mod5[:2] == (0, json.dumps({"e0": 2, "e1": 1, "cordial": True}) + "\n")
    code, out, _ = run(capsys, "verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3")
    assert (code, json.loads(out)) == (0, {"e0": 2, "e1": 1, "cordial": True})


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


def test_search_and_construct_auto_admit_disconnected_graphs(capsys):
    # verify refuses a disconnected graph; search searches it like any other
    code, out, err = run(capsys, "search", "--g", "edges:3:0-1", "--p", "3")
    assert (code, json.loads(out), err) == (
        0, {"outcome": "found", "nodes": 3, "labeling": [1, 2, 3]}, ""
    )
    # the join allows a disconnected factor, and --auto probes it
    code, out, err = run(
        capsys, "construct", "join", "--g1", "cycle:5", "--g2", "edges:4:0-1,2-3", "--p", "5",
        "--auto",
    )
    obj = json.loads(out)
    assert (code, err, obj["labeling"]["assign"]) == (0, "", [1, 2, 4, 5, 3, 6, 8, 7, 9])
    assert obj["verified"] == {"e0": 14, "e1": 13, "cordial": True}


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


@pytest.mark.parametrize("g2, want", [("path:65", 4), ("cycle:65", 2)])
def test_construct_auto_ceiling_only_for_a_probed_factor(capsys, g2, want):
    # C3's probes all fail against P65, which is never probed; C65 is
    code, _, err = run(
        capsys, "construct", "join", "--g1", "cycle:3", "--g2", g2, "--p", "3", "--auto"
    )
    error = json.loads(err)["error"]
    assert code == error["code"] == want
    assert error["type"] == {4: "search-none", 2: "usage-error"}[want]


# |E(G1 ⊠ G2)| = n1 m2 + n2 m1 + 2 m1 m2
@pytest.mark.parametrize(
    "g1, g2, p, order, size",
    [("cycle:15", "path:3", 5, 45, 135), ("cycle:21", "path:2", 7, 42, 105)],
)
def test_construct_strong_auto_above_order_12(capsys, g1, g2, p, order, size):
    # strong needs |V(g1)| = 3p, so at p >= 5 its searched factor has order
    # 15 or more
    code, out, err = run(
        capsys, "construct", "strong", "--g1", g1, "--g2", g2, "--p", str(p), "--auto"
    )
    assert code == 0 and err == ""
    bundle = json.loads(out)
    edges = [tuple(e) for e in bundle["graph"]["edges"]]
    assert (bundle["graph"]["order"], len(set(edges))) == (order, size)
    e0, e1 = brute_tally(edges, bundle["labeling"]["assign"], p)
    assert abs(e0 - e1) <= 1
    assert bundle["predicted"] == {"e0": e0, "e1": e1}
    assert bundle["verified"] == {"e0": e0, "e1": e1, "cordial": True}


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines():
    text = README.read_text()
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_readme_cli_block_is_found():
    assert len(_readme_cli_lines()) == 11


def _command(line):
    return line.partition("  #")[0].strip()


@pytest.mark.parametrize("line", _readme_cli_lines(), ids=_command)
def test_readme_cli_examples_run(capsys, line):
    argv = shlex.split(_command(line))
    assert argv[0] == "legcordial"
    code, out, _ = run(capsys, *argv[1:])
    assert code == (4 if "prove-none" in argv else 0)
    comment = line.partition("  #")[2].strip()
    if comment.startswith("{"):  # the output, shown as it is printed
        assert out == comment + "\n"


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
        {"order": 3.7, "edges": [[0, 1.9], [True, 2]]},
        {"order": 3, "edges": [[1, 2], [0, "1"]]},
        {"order": 3, "edges": [[1, 2], [0, 1.0]]},
        {"order": 3, "edges": [[1, 2], [0, True]]},
        {"order": 3, "edges": [[0, 1], [1, 2]], "names": "abc"},
        {"order": 3, "edges": [[0, 1], [1, 2]], "names": [1, None, 3]},
        {"order": 3, "edges": [[0, 1, 2]]},
        {"order": 3, "edges": [[0]]},
        {"order": 3, "edges": [[]]},
        {"order": 3, "edges": [5]},
    ],
    ids=[
        "null-endpoint", "int-edges", "null-edges", "int-names", "null-order",
        "float-order", "str-endpoint", "float-endpoint", "bool-endpoint",
        "str-names", "non-str-names", "triple-edge", "single-edge", "empty-edge",
        "int-edge",
    ],
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
    assert "object is not iterable" not in error["message"]


@pytest.mark.parametrize("names", ["abc", [1, None, 3]], ids=["str", "non-str"])
def test_graph_file_with_bad_names_prints_no_dot(tmp_path, capsys, names):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 3, "edges": [[0, 1], [1, 2]], "names": names}))
    code, out, err = run(
        capsys, "verify", "--g", str(path), "--labeling", "1,2,3", "--p", "3", "--format", "dot"
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith("malformed graph JSON: ")


def test_dot_escapes_vertex_names(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 3, "edges": [[0, 1], [1, 2]], "names": ['a"b', "c\\", "d\ne"]}))
    code, out, err = run(
        capsys, "verify", "--g", str(path), "--labeling", "1,2,3", "--p", "3", "--format", "dot"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1:4] == [
        '  0 [label="a\\"b:1"];',
        '  1 [label="c\\\\:2"];',
        '  2 [label="d\\ne:3"];',
    ]


@pytest.mark.parametrize(
    "obj", [{"p": 3}, [1, 2], {"theorem": 3, "p": 3}, "cart", {"theorem": "cart"}]
)
def test_construct_malformed_recipe_is_usage_error(tmp_path, capsys, obj):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(obj))
    code, out, err = run(capsys, "construct", "--recipe", str(recipe))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage-error"
    assert error["message"].startswith("recipe JSON needs 'theorem' and 'p': ")


@pytest.mark.parametrize(
    "key,value",
    [
        ("lab_g1", 5), ("lab_g2", [1, None]), ("p", None), ("p", [5]), ("g1", 7),
        ("p", 5.0), ("p", "5"), ("p", True), ("lab_g1", [1.5, 2.2, 3.7, 4, 5]),
        ("lab_g1", [2, 1, 3, 5, True]),
    ],
)
def test_construct_bad_recipe_field_is_named(tmp_path, capsys, key, value):
    obj = {"theorem": "cartesian", "p": 5, "g1": "cycle:5", "g2": "cycle:4", key: value}
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(obj))
    code, out, err = run(capsys, "construct", "--recipe", str(recipe))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "usage-error"
    assert error["message"].startswith(f"recipe field '{key}': ")
    assert "object is not iterable" not in error["message"]


@pytest.mark.parametrize(
    "obj",
    [
        {"p": 3, "assign": [1, None, 3]},
        {"p": 3, "assign": 5},
        {"p": [1], "assign": [1, 2, 3]},
        {"p": 3.9, "assign": [1.5, 2.2, 3.7]},
        {"p": "3", "assign": [1, 2, 3]},
        {"p": 3.0, "assign": [1, 2, 3]},
        {"p": True, "assign": [1, 2, 3]},
        {"p": 3, "assign": [1, 2, 3.0]},
    ],
    ids=["null-entry", "int-assign", "list-p", "float-p-and-entries", "str-p", "float-p",
         "bool-p", "float-entry"],
)
def test_malformed_labeling_file_is_usage_error(tmp_path, capsys, obj):
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--g", "cycle:3", "--labeling", str(path))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (2, "usage-error")
    assert error["message"].startswith("malformed labeling JSON: ")
    assert "object is not iterable" not in error["message"]


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


def _one_usage_error(code, out, err) -> str:
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (2, "usage-error")
    return error["message"]


@pytest.mark.parametrize(
    "argv,msg",
    [
        # d is even on C6, so diff:1 is a window no labeling fits; p is refused first
        (("--p", "4"), "p must be an odd prime, got 4"),
        (("--p", "9", "--mode", "count-all"), "p must be an odd prime, got 9"),
        (("--p", "5", "--budget-seconds", "nan"), "time budget must be positive"),
        (("--p", "5", "--budget-nodes", "0"), "node budget must be positive"),
    ],
)
def test_search_bad_prime_or_budget_is_usage_error(capsys, argv, msg):
    got = run(capsys, "search", "--g", "cycle:6", "--objective", "diff:1", *argv)
    assert _one_usage_error(*got) == msg


MERSENNE_127 = str(2**127 - 1)  # prime; trial division up to its root would not end


@pytest.mark.parametrize(
    "argv",
    [("legendre", "2", MERSENNE_127), ("search", "--g", "cycle:5", "--p", MERSENNE_127)],
    ids=["legendre", "search"],
)
def test_prime_over_the_cap_is_refused_by_size(capsys, argv):
    got = run(capsys, *argv)
    assert _one_usage_error(*got) == f"p exceeds the supported bound 10000: {MERSENNE_127}"


def test_construct_auto_over_the_search_ceiling_is_usage_error(capsys):
    # d1 = 0 is a window no labeling of C65 (odd size) fits, but the order
    # is refused before that window is answered
    got = run(capsys, "construct", "tensor", "--g1", "cycle:65", "--g2", "path:3", "--p", "5", "--auto")
    assert _one_usage_error(*got) == "graph order 65 exceeds the search ceiling 64"


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--g", "complete:4", "--p", "3", "--mode", "prove-none", "--jobs", "2"),
        ("construct", "corona-path", "--g", "cycle:3", "--p", "3", "--jobs", "2"),
        ("search", "--g", "cycle:5", "--p", "x"),
        ("search", "--g", "cycle:5", "--p", "5", "--format", "dot"),  # no graph to draw
        ("legendre", "2", "5", "--format", "dot"),
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
    # budgets come from the flags alone; --budget-nodes 3 stops this proof
    monkeypatch.setenv("LEGCORDIAL_BUDGET_NODES", "3")
    code, out, _ = run(capsys, "search", "--g", "complete:4", "--p", "3", "--mode", "prove-none")
    assert code == 4
    assert json.loads(out) == {"outcome": "none", "nodes": 4}


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


def _recipe_argv(tmp_path, obj) -> tuple[str, ...]:
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(obj))
    return ("construct", "--recipe", str(path))


JOIN_C5_P4 = {"theorem": "join", "p": 5, "g1": "cycle:5", "g2": "path:4"}


def test_construct_recipe_auto_writes_the_flag_bytes(tmp_path, capsys):
    flags = run(capsys, "construct", "join", "--g1", "cycle:5", "--g2", "path:4", "--p", "5", "--auto")
    recipe = run(capsys, *_recipe_argv(tmp_path, JOIN_C5_P4), "--auto")
    assert recipe == flags
    code, out, err = flags
    assert code == 0 and err == ""
    assert json.loads(out)["verified"] == {"e0": 14, "e1": 14, "cordial": True}


@pytest.mark.parametrize("form", ["flags", "recipe"])
def test_construct_auto_with_part_of_the_needed_labels_is_usage_error(tmp_path, capsys, form):
    if form == "flags":
        argv = ("construct", "join", "--g1", "cycle:5", "--g2", "path:4", "--p", "5",
                "--lab-g1", "5,4,3,2,1")
    else:
        argv = _recipe_argv(tmp_path, {**JOIN_C5_P4, "lab_g1": [5, 4, 3, 2, 1]})
    message = _one_usage_error(*run(capsys, *argv, "--auto"))
    assert "--lab-g1" in message and "--lab-g2" in message


@pytest.mark.parametrize("form", ["flags", "recipe"])
def test_construct_auto_ignores_a_label_the_theorem_does_not_use(tmp_path, capsys, form):
    # the cartesian theorem labels g1 only, so a g2 labeling leaves the search to run
    if form == "flags":
        argv = ("construct", "cart", "--g1", "cycle:5", "--g2", "cycle:4", "--p", "5",
                "--lab-g2", "1,2,3,4")
    else:
        argv = _recipe_argv(tmp_path, {"theorem": "cart", "p": 5, "g1": "cycle:5",
                                       "g2": "cycle:4", "lab_g2": [1, 2, 3, 4]})
    code, out, err = run(capsys, *argv, "--auto")
    assert code == 0 and err == ""
    assert json.loads(out)["verified"] == {"e0": 20, "e1": 20, "cordial": True}


def test_construct_recipe_without_a_factor_is_usage_error_with_auto(tmp_path, capsys):
    argv = _recipe_argv(tmp_path, {"theorem": "join", "p": 5, "g1": "cycle:5"})
    assert _one_usage_error(*run(capsys, *argv, "--auto")) == "recipe for join needs both factor graphs"


@pytest.mark.parametrize(
    "theorem,graphs,order",
    [
        ("kp-tensor", {"g1": "path:2", "g2": "path:3"}, 6),  # K3 x P2: g1 is read
        ("corona-path", {"g2": "path:2"}, 6),  # no g1: g2 is read
    ],
)
def test_single_factor_flags_and_recipe_give_the_same_bytes(tmp_path, capsys, theorem, graphs, order):
    flags = [arg for key, spec in graphs.items() for arg in ("--" + key, spec)]
    by_flags = run(capsys, "construct", theorem, "--p", "3", *flags)
    by_recipe = run(capsys, *_recipe_argv(tmp_path, {"theorem": theorem, "p": 3, **graphs}))
    assert by_recipe == by_flags
    code, out, err = by_flags
    assert code == 0 and err == ""
    assert json.loads(out)["graph"]["order"] == order


def test_single_factor_recipe_without_a_graph_is_usage_error(tmp_path, capsys):
    argv = _recipe_argv(tmp_path, {"theorem": "kp-tensor", "p": 3})
    message = _one_usage_error(*run(capsys, *argv))
    assert message == "recipe for kp-tensor needs a factor graph, g1 or g2"


@pytest.mark.parametrize(
    "extra,named",
    [
        (("join", "--p", "7", "--g1", "cycle:5", "--lab-g1", "1,2,3,4,5"),
         ["the theorem name", "--p", "--g1", "--lab-g1"]),
        (("corona-path",), ["the theorem name"]),
        (("--p", "3"), ["--p"]),
        (("--g", "path:2", "--g2", "path:3"), ["--g", "--g2"]),
        (("--lab-g2", "1,2"), ["--lab-g2"]),
    ],
)
def test_construct_recipe_refuses_the_flags_it_would_ignore(tmp_path, capsys, extra, named):
    # the file alone gives the recipe: a flag it would override is refused, not dropped
    argv = _recipe_argv(tmp_path, {"theorem": "corona-path", "p": 3, "g1": "path:2"})
    message = _one_usage_error(*run(capsys, *argv, *extra, "--format", "table"))
    assert message.endswith("drop " + ", ".join(named))


def test_construct_recipe_takes_auto_budgets_format_and_out(tmp_path, capsys):
    argv = _recipe_argv(tmp_path, {"theorem": "corona-path", "p": 3, "g1": "path:2"})
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, *argv, "--auto", "--budget-nodes", "9", "--budget-seconds",
                            "5", "--format", "table", "--out", str(out))
    assert (code, stdout, err) == (0, "", "")
    assert out.read_text().startswith("theorem: corona-path\np: 3\norder: 6\n")


# Hypothesis gates that no other test reaches: (construct argv, the API call
# that raises, its class, its message). Every gate runs before a label is read.
DISCONNECTED = "edges:4:0-1,2-3"
UNREACHED_GATES = [
    (("lex", "--g1", DISCONNECTED, "--g2", "cycle:3", "--lab-g2", "1,2,3", "--p", "3"),
     lambda: balance_form("lexicographic", parse_family(DISCONNECTED), make_cycle(3), 3),
     ConnectivityViolation, "g1 must be connected"),
    (("cart", "--g1", "cycle:5", "--lab-g1", "1,2,3,4,5", "--g2", DISCONNECTED, "--p", "5"),
     lambda: balance_form("cartesian", make_cycle(5), parse_family(DISCONNECTED), 5),
     ConnectivityViolation, "both factors must be connected"),
    (("tensor", "--g1", DISCONNECTED, "--lab-g1", "1,2,3,4", "--g2", "cycle:3", "--p", "3"),
     lambda: balance_form("tensor", parse_family(DISCONNECTED), make_cycle(3), 3),
     ConnectivityViolation, "both factors must be connected"),
    (("strong", "--g1", "cycle:9", "--lab-g1", "1,2,3,4,5,6,7,8,9", "--g2", DISCONNECTED,
      "--p", "3"),
     lambda: balance_form("strong", make_cycle(9), parse_family(DISCONNECTED), 3),
     ConnectivityViolation, "both factors must be connected"),
    (("tensor", "--g1", "cycle:3", "--lab-g1", "1,2,3", "--g2", "path:1", "--p", "3"),
     lambda: balance_form("tensor", make_cycle(3), parse_family("path:1"), 3),
     ConnectivityViolation, "a one-vertex factor gives an edgeless, disconnected product"),
    (("corona-path", "--g", "path:1", "--p", "3"),
     lambda: construct_corona_path(parse_family("path:1"), 3),
     HypothesisViolation, "base graph must have order >= 2 (got 1, required >= 2)"),
    (("kp-tensor", "--g", "path:1", "--p", "3"),
     lambda: construct_kp_tensor(parse_family("path:1"), 3),
     HypothesisViolation, "factor graph must have order >= 2 (got 1, required >= 2)"),
]


@pytest.mark.parametrize(
    "argv,call,kind,message", UNREACHED_GATES,
    ids=["lex-g1", "cart", "tensor", "strong", "tensor-one-vertex", "corona-path", "kp-tensor"],
)
def test_unreached_hypothesis_gates(capsys, argv, call, kind, message):
    with pytest.raises(HypothesisViolation) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (kind, message)
    code, out, err = run(capsys, "construct", *argv)
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {
        "code": 3, "type": "hypothesis-violation", "message": message
    }


# Each JSON file argument, with the start of the io-error message it gets
# when the file cannot be parsed; {} stands for the file.
JSON_FILE_ARGS = pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--g", "{}", "--labeling", "1,2,3", "--p", "3"), "bad JSON in '{}': "),
        (("search", "--g", "{}", "--p", "3"), "bad JSON in '{}': "),
        (("verify", "--g", "cycle:3", "--labeling", "{}", "--p", "3"), "cannot read labeling '{}': "),
        (("construct", "--recipe", "{}"), "bad recipe JSON: "),
    ],
    ids=["graph-verify", "graph-search", "labeling", "recipe"],
)


def _one_io_error_on(capsys, argv, message, path):
    code, out, err = run(capsys, *(arg.format(path) for arg in argv))
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (1, "io-error")
    assert error["message"].startswith(message.format(path))


@JSON_FILE_ARGS
def test_deeply_nested_json_file_is_one_io_error(tmp_path, capsys, argv, message):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    _one_io_error_on(capsys, argv, message, path)


@JSON_FILE_ARGS
def test_json_file_that_is_not_utf8_is_one_io_error(tmp_path, capsys, argv, message):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    _one_io_error_on(capsys, argv, message, path)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python converts integer strings of any length",
)
@JSON_FILE_ARGS
def test_json_file_with_an_over_long_integer_is_one_io_error(tmp_path, capsys, argv, message):
    # valid JSON, but int() refuses a literal over the digit limit
    path = tmp_path / "long-int.json"
    path.write_text('{"order": 2, "edges": [[0, ' + "1" * (sys.get_int_max_str_digits() + 1) + "]]}")
    _one_io_error_on(capsys, argv, message, path)


def _one_byte_cap_error_on(capsys, argv, path):
    code, out, err = run(capsys, *(arg.format(path) for arg in argv))
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {
        "code": 2,
        "type": "usage-error",
        "message": f"JSON file {str(path)!r} exceeds the supported bound of 40 bytes",
    }


@JSON_FILE_ARGS
def test_json_file_over_the_byte_cap_is_one_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    from legcordial import cli

    monkeypatch.setattr(cli, "MAX_JSON_BYTES", 40)
    path = tmp_path / "padded.json"
    path.write_text("{}" + " " * 39)  # valid JSON, pushed one byte over the cap
    _one_byte_cap_error_on(capsys, argv, path)


def test_graph_file_at_the_byte_cap_is_read(tmp_path, capsys, monkeypatch):
    from legcordial import cli

    monkeypatch.setattr(cli, "MAX_JSON_BYTES", 40)
    path = tmp_path / "graph.json"
    text = '{"order": 3, "edges": [[0, 1], [1, 2]]}'
    path.write_text(text.ljust(40))
    argv = ("verify", "--g", "{}", "--labeling", "1,2,3", "--p", "3")
    code, out, _ = run(capsys, *(arg.format(path) for arg in argv))
    assert (code, out) == (0, '{"e0": 2, "e1": 0, "cordial": false}\n')
    path.write_text(text.ljust(41))
    _one_byte_cap_error_on(capsys, argv, path)


def test_json_file_is_read_in_chunks_up_to_one_byte_past_the_cap(tmp_path, capsys, monkeypatch):
    from legcordial import cli

    monkeypatch.setattr(cli, "MAX_JSON_BYTES", 40)
    monkeypatch.setattr(cli, "_READ_CHUNK", 7)
    reads = []  # (bytes asked for, bytes returned) of each read

    class Spy:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, n):
            data = self.fh.read(n)
            reads.append((n, len(data)))
            return data

    monkeypatch.setattr(cli, "open", lambda *args: Spy(open(*args)), raising=False)
    path = tmp_path / "graph.json"
    text = '{"order": 3, "edges": [[0, 1], [1, 2]]}'
    path.write_text(text.ljust(40))  # five full chunks and a short one
    argv = ("verify", "--g", "{}", "--labeling", "1,2,3", "--p", "3")
    code, out, _ = run(capsys, *(arg.format(path) for arg in argv))
    assert (code, out) == (0, '{"e0": 2, "e1": 0, "cordial": false}\n')
    assert reads == [(7, 7)] * 5 + [(6, 5), (1, 0)]  # no read asks past byte 41
    reads.clear()
    path.write_text(text.ljust(100))
    _one_byte_cap_error_on(capsys, argv, path)
    assert reads == [(7, 7)] * 5 + [(6, 6), (0, 0)]  # 41 bytes of the 100


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_graph_from_a_pipe_is_read_only_to_the_byte_cap(tmp_path, capsys, monkeypatch):
    import threading

    from legcordial import cli

    monkeypatch.setattr(cli, "MAX_JSON_BYTES", 40)
    path = tmp_path / "graph.pipe"
    os.mkfifo(path)
    written = []

    def write_1_mb():
        try:
            with open(path, "wb") as fh:
                for _ in range(1024):
                    fh.write(b" " * 1024)
                    written.append(1024)
        except BrokenPipeError:  # the reader closed the pipe after 41 bytes
            written.append(None)

    writer = threading.Thread(target=write_1_mb, daemon=True)  # never blocks the exit
    writer.start()
    try:
        _one_byte_cap_error_on(capsys, ("search", "--g", "{}", "--p", "3"), path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert written[-1] is None


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
        (("gen", "edges:0-1,,1-2"), {"order": 3, "edges": [[0, 1], [1, 2]]}),
    ],
    ids=["gen", "op", "verify", "search", "construct", "gen-empty-edge-part"],
)
def test_json_output_is_one_line(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line) == expected


CONSTRUCTS = [
    ("corona-path", "--g", "path:2", "--p", "3"),
    ("kp-tensor", "--g", "path:3", "--p", "3"),
    ("join", "--g1", "path:3", "--g2", "complete:1", "--lab-g1", "2,1,3", "--lab-g2", "1", "--p", "3"),
    ("corona", "--g1", "path:2", "--g2", "edges:3:0-1", "--p", "3", "--auto"),
    ("lex", "--g1", "cycle:3", "--g2", H7_SPEC, "--lab-g2", "1,2,3,4,5,6,7", "--p", "7"),
    ("cart", "--g1", "cycle:5", "--lab-g1", "2,1,3,5,4", "--g2", "cycle:400", "--p", "5"),
    ("tensor", "--g1", "path:3", "--lab-g1", "2,1,3", "--g2", "cycle:401", "--p", "3"),
    ("strong", "--g1", "cycle:9", "--lab-g1", "1,2,3,4,5,8,6,7,9", "--g2", "path:4", "--p", "3"),
]


def _stdout_and_file_text(capsys, tmp_path, argv) -> tuple[str, str]:
    """The JSON output of argv on stdout, and what --out writes; both must exit 0."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    path = tmp_path / "out.json"
    code, _, err = run(capsys, *argv, "--format", "json", "--out", str(path))
    assert code == 0 and err == ""
    return out, path.read_text()


@pytest.mark.parametrize("argv", CONSTRUCTS, ids=[a[0] for a in CONSTRUCTS])
def test_construct_json_is_the_dumps_of_the_bundle(capsys, tmp_path, monkeypatch, argv):
    from legcordial import cli

    built = []
    real_run_recipe = cli.run_recipe

    def recording_run_recipe(recipe):
        built.append((recipe, real_run_recipe(recipe)))
        return built[-1][1]

    monkeypatch.setattr(cli, "run_recipe", recording_run_recipe)
    out, written = _stdout_and_file_text(capsys, tmp_path, ("construct", *argv))
    recipe, (graph, lab, predicted) = built[0]
    assert recipe.theorem == normalize_theorem(argv[0])
    expected = json.dumps({
        "theorem": recipe.theorem,
        "p": recipe.p,
        "graph": graph_to_json(graph),
        "labeling": labeling_to_json(lab, recipe.p),
        "predicted": {"e0": predicted.e0, "e1": predicted.e1},
        "verified": tally_report(predicted),
    })
    assert (out, written) == (expected + "\n", expected)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "path:1"),
        ("gen", "path:1026"),
        ("op", "tensor", "path:2", "path:2"),
        ("op", "cart", "cycle:5", "path:300"),
        ("op", "corona", "cycle:3", "complete:2"),
    ],
)
def test_gen_and_op_json_is_the_dumps_of_the_graph(capsys, tmp_path, argv):
    from legcordial import cli

    out, written = _stdout_and_file_text(capsys, tmp_path, argv)
    if argv[0] == "gen":
        payload = graph_to_json(cli.parse_family(argv[1]))
    else:
        op, convention = cli._OPS[argv[1]]
        g = op(cli.parse_family(argv[2]), cli.parse_family(argv[3]))
        payload = graph_to_json(g)
        payload.update(convention=convention, connected=is_connected(g))
        if not is_connected(g):
            payload["warnings"] = ["result is disconnected"]
    expected = json.dumps(payload)
    assert (out, written) == (expected + "\n", expected)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("corona-path", "--g", "path:2", "--p", "3"),  # fails when the file is closed
        ("cart", "--g1", "cycle:5", "--lab-g1", "2,1,3,5,4", "--g2", "cycle:400", "--p", "5"),
    ],
    ids=["small", "streamed"],
)
def test_construct_to_a_full_device_is_one_io_error(capsys, argv):
    code, out, err = run(capsys, "construct", *argv, "--out", "/dev/full")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (1, "io-error")
    assert error["message"].startswith("cannot write '/dev/full': ")


def test_stdout_write_error_is_one_io_error(capsys, monkeypatch):
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        writelines = write

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    code = main(["gen", "path:3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == {"code": 1, "type": "io-error", "message": "[Errno 32] Broken pipe"}


def test_out_of_memory_is_one_json_error(capsys, monkeypatch):
    # A graph file under the byte cap can still outgrow a small machine's
    # memory while it is parsed or built; the CLI then fails as for an
    # unreadable file, with exit 1 and one error object.
    def out_of_memory(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "load_graph_arg", out_of_memory)
    code, out, err = run(capsys, "verify", "--g", "dense.json", "--labeling", "1,2", "--p", "3")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {"code": 1, "type": "out-of-memory", "message": "ran out of memory"}


def test_verify_output_bytes(capsys):
    _, out, _ = run(capsys, "verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3")
    assert out == '{"e0": 2, "e1": 1, "cordial": true}\n'


# Exact stdout, stderr and exit code of table and dot output for every
# theorem, and of failures no other case reaches. The file is a record of
# past output: a change that needs it rewritten changes the CLI's bytes.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

# More of the same record: the search table for each outcome (keys sorted),
# the gen and op tables (op's extras after the graph head), and the diffwin
# objective, whose window {1, 3} on C5 no exact difference matches.
GOLDEN += [
    {"id": "search-found-table", "argv": ["search", "--g", "cycle:3", "--p", "3", "--format", "table"],
     "code": 0, "stdout": "labeling: [1, 2, 3]\nnodes: 3\noutcome: found\n", "stderr": ""},
    {"id": "search-none-table",
     "argv": ["search", "--g", "complete:4", "--p", "3", "--mode", "prove-none", "--format", "table"],
     "code": 4, "stdout": "nodes: 4\noutcome: none\n", "stderr": ""},
    {"id": "search-exhausted-table",
     "argv": ["search", "--g", "complete:4", "--p", "3", "--mode", "prove-none", "--budget-nodes", "3",
              "--format", "table"],
     "code": 5, "stdout": "nodes: 3\noutcome: exhausted\n", "stderr": ""},
    {"id": "search-count-all-table",
     "argv": ["search", "--g", "cycle:3", "--p", "3", "--mode", "count-all", "--format", "table"],
     "code": 0, "stdout": "count: 6\nlabeling: [1, 2, 3]\nnodes: 3\noutcome: found\n", "stderr": ""},
    {"id": "search-diffwin",
     "argv": ["search", "--g", "cycle:5", "--p", "5", "--objective", "diffwin:2", "--mode", "count-all"],
     "code": 0, "stdout": '{"outcome": "found", "nodes": 39, "labeling": [1, 2, 4, 5, 3], "count": 30}\n',
     "stderr": ""},
    {"id": "op-tensor-table", "argv": ["op", "tensor", "path:2", "path:2", "--format", "table"],
     "code": 0,
     "stdout": "order: 4\nsize:  2\nedges: 0-3 1-2\nconvention: (i, j) -> i*|V(g2)| + j\n"
               "connected: False\nwarnings: ['result is disconnected']\n",
     "stderr": ""},
    {"id": "gen-table", "argv": ["gen", "path:4", "--format", "table"],
     "code": 0, "stdout": "order: 4\nsize:  3\nedges: 0-1 1-2 2-3\n", "stderr": ""},
]


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_output_bytes_match_the_golden_record(capsys, case):
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


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


@contextlib.contextmanager
def collector(enabled: bool):
    """Turn the cyclic collector on or off for the block, then restore its state."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """The collector's state on entry to main."""
    with collector(request.param):
        yield request.param


@pytest.mark.parametrize(
    "argv,code",
    [
        (("verify", "--g", "cycle:3", "--labeling", "1,2,3", "--p", "3"), 0),
        (("op", "cart", "no-such-file.json", "path:2"), 1),
        (("gen", "cycle:2"), 2),
        (("construct", "corona-path", "--g", "cycle:3", "--p", "7"), 3),
        (("search", "--g", "complete:4", "--p", "3", "--mode", "prove-none"), 4),
        (("search", "--g", "complete:4", "--p", "3", "--mode", "prove-none", "--budget-nodes", "3"), 5),
    ],
    ids=["ok", "io", "usage", "hypothesis", "none", "exhausted"],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, gc_state, argv, code):
    assert run(capsys, *argv)[0] == code
    assert gc.isenabled() is gc_state


def test_main_leaves_the_collector_as_it_found_it_on_a_parser_exit(capsys, gc_state):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--g", "cycle:5", "--p", "x"])
    assert exc.value.code == 2
    assert gc.isenabled() is gc_state


def test_main_leaves_the_collector_as_it_found_it_when_a_handler_raises(
    capsys, monkeypatch, gc_state
):
    from legcordial import cli

    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler bug")

    monkeypatch.setattr(cli, "_cmd_gen", broken)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # binds the patched handler
    with pytest.raises(RuntimeError, match="handler bug"):
        main(["gen", "path:3"])
    assert seen == [False]
    assert gc.isenabled() is gc_state


def test_construct_and_verify_start_no_collection(tmp_path, capsys):
    # Parsing and writing 3125 edges allocates far more containers than the
    # young-generation threshold, so a running collector would start inside
    # the handlers. Collections outside them (in parse_args, or once main has
    # turned the collector back on) depend on what ran before and are not
    # counted.
    from legcordial import cli

    handlers = {cli._cmd_construct.__code__, cli._cmd_verify.__code__}
    started = []

    def on_gc(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in handlers:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            started.append(info["generation"])

    bundle_file = tmp_path / "cart.json"
    graph_file, labeling_file = tmp_path / "g.json", tmp_path / "lab.json"
    construct = ("construct", "cart", "--g1", "cycle:5", "--g2", "cycle:625", "--p", "5",
                 "--lab-g1", "2,1,3,5,4", "--out", str(bundle_file))
    verify = ("verify", "--g", str(graph_file), "--labeling", str(labeling_file))
    with collector(True):
        gc.callbacks.append(on_gc)
        try:
            assert run(capsys, *construct) == (0, "", "")
            bundle = json.loads(bundle_file.read_text())
            graph_file.write_text(json.dumps(bundle["graph"]))
            labeling_file.write_text(json.dumps(bundle["labeling"]))
            code, out, err = run(capsys, *verify)
        finally:
            gc.callbacks.remove(on_gc)
    assert started == []
    assert bundle_file.read_text() == json.dumps(bundle)
    assert (code, out, err) == (0, json.dumps(bundle["verified"]) + "\n", "")


# ---------------------------------------------------------------------------
# The failure contract, over argv drawn from a grammar of the CLI
# ---------------------------------------------------------------------------

# Each value is drawn as a pair of strategies: one that the command accepts,
# and one that also draws values of the wrong kind. A clean command line
# takes every value from the first, so that exits 0, 3, 4 and 5 are reached
# as often as the usage and I/O errors of a noisy one.
PRIME = st.sampled_from(["3", "5", "7", "11"])
NUMBER = (PRIME, st.one_of(
    PRIME,
    st.integers(-2, 13).map(str),
    st.sampled_from(["True", "1.5", "-0.0", "nan", "inf", "1e3", "", " 7", "0x10",
                     str(10**30), str(2**63)]),
))
# complete graphs twice, so that a search that finds none (exit 4) is drawn
VALID_FAMILY = st.builds("{}:{}".format,
                         st.sampled_from(["path", "cycle", "complete", "star", "complete"]),
                         st.integers(1, 8))
ANY_FAMILY = st.one_of(
    VALID_FAMILY,
    st.builds("{}:{}".format,
              st.sampled_from(["path", "cycle", "complete", "star", " Cycle", "wheel"]), NUMBER[1]),
    st.sampled_from(["edges:0-1,1-2", "edges:4:0-1,2-3", "edges:0-0", "edges:a-b", "edges:-1-2",
                     "edges:0-1,,", "edges:3:0-9", "edges:", "cycle", ":", "path:3:4"]),
    st.text(max_size=6),
)
# JSON that is nearly a graph, labeling or recipe, or of the wrong type anywhere
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**64) | st.floats() | st.text(max_size=4)
    | ANY_FAMILY,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["order", "edges", "names", "p", "assign", "theorem", "g1", "g2",
                         "lab_g1", "lab_g2"]), inner, max_size=5),
    max_leaves=10,
)
NEAR_DOCUMENT = st.one_of(
    st.fixed_dictionaries({"order": st.integers(0, 8) | JSON_VALUE,
                           "edges": st.lists(st.lists(st.integers(-1, 8), min_size=2, max_size=2),
                                             max_size=8) | JSON_VALUE}),
    st.fixed_dictionaries({"p": st.sampled_from([3, 5, 7, 4]) | JSON_VALUE,
                           "assign": st.lists(st.integers(0, 8), max_size=8) | JSON_VALUE}),
    st.fixed_dictionaries({"theorem": st.sampled_from(["join", "cart", "corona-path"]) | JSON_VALUE,
                           "p": st.sampled_from([3, 5]) | JSON_VALUE},
                          optional={"g1": ANY_FAMILY | JSON_VALUE, "g2": ANY_FAMILY | JSON_VALUE,
                                    "lab_g1": JSON_VALUE, "lab_g2": JSON_VALUE}),
)
CONTENT = st.one_of(
    st.binary(max_size=12),
    st.builds(lambda opener, depth, closed: opener * depth + "]" * depth * closed,
              st.sampled_from(["[", '{"a": ', '[{"order": ']), st.sampled_from([1, 900, 100_000]),
              st.booleans()).map(str.encode),
    st.one_of(JSON_VALUE, NEAR_DOCUMENT).map(lambda value: json.dumps(value).encode()),
)


class _File(bytes):
    """An argv token that stands for a file holding these bytes."""


class _Out(str):
    """An argv token that stands for this path under the run's directory."""


def _choices(valid, invalid):
    return st.sampled_from(valid), st.sampled_from(valid + invalid)


FILE = CONTENT.map(_File)
GRAPH = (VALID_FAMILY, st.one_of(ANY_FAMILY, FILE))
PERMUTATION = st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1)))
LABELS = (PERMUTATION.map(lambda labels: ",".join(map(str, labels))),
          st.one_of(st.lists(NUMBER[1], max_size=6).map(",".join), FILE))
OUT = tuple(strategy.map(_Out) for strategy in _choices(["out.json"], [".", "missing/out.json"]))
COMMON = {"--out": OUT, "--format": _choices(["json", "dot", "table"], ["yaml"])}
NO_DOT = {"--out": OUT, "--format": _choices(["json", "table"], ["yaml", "dot"])}  # no graph out
BUDGET = {"--budget-seconds": _choices(["0.5", "inf"], ["0", "-1", "nan", "x"])}
OBJECTIVE = st.one_of(st.just("cordial"), st.builds("{}:{}".format,
                                                    st.sampled_from(["diff", "diffwin"]),
                                                    st.integers(-3, 3)))
THEOREM = _choices(["join", "corona", "lex", "cart", "tensor", "strong", "corona-path", "kp_tensor"],
                   ["sum"])
RECIPE = st.fixed_dictionaries(
    {"theorem": THEOREM[0], "p": PRIME.map(int), "g1": VALID_FAMILY, "g2": VALID_FAMILY},
    optional={"lab_g1": PERMUTATION.map(list), "lab_g2": PERMUTATION.map(list)},
).map(lambda recipe: _File(json.dumps(recipe).encode()))
COMMANDS = {
    "gen": ([(VALID_FAMILY, ANY_FAMILY)], COMMON),
    "op": ([_choices(["join", "corona", "lex", "cart", "tensor", "strong"], ["sum"]),
            GRAPH, GRAPH], COMMON),
    "construct": ([THEOREM], {"--p": NUMBER, "--g": GRAPH, "--g1": GRAPH, "--g2": GRAPH,
                              "--lab-g1": LABELS, "--lab-g2": LABELS,
                              "--auto": (st.none(), st.none()),
                              "--recipe": (RECIPE, st.one_of(RECIPE, FILE)), **COMMON, **BUDGET}),
    "verify": ([], {"--g": GRAPH, "--labeling": LABELS, "--p": NUMBER, **COMMON}),
    "search": ([], {"--g": GRAPH, "--p": NUMBER,
                    "--objective": (OBJECTIVE, st.one_of(OBJECTIVE, st.just("best"), st.builds(
                        "{}:{}".format, st.sampled_from(["diff", "diffwin"]), NUMBER[1]))),
                    "--mode": _choices(["find-first", "count-all", "prove-none"], ["all"]),
                    **NO_DOT, **BUDGET}),
    "legendre": ([NUMBER, NUMBER], NO_DOT),
}


@st.composite
def cli_argv(draw):
    """A command line: each positional and flag may be missing, and a noisy one
    may hold a value of the wrong kind or a stray token."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, flags = COMMANDS[command]
    noisy = draw(st.booleans())
    argv = [command]
    for value in positionals:
        if draw(st.integers(0, 9)):
            argv.append(draw(value[noisy]))
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 2)) or flag in ("--g", "--p", "--labeling"):
            value = draw(flags[flag][noisy])
            argv += [flag] if value is None else [flag, value]
    if command in ("construct", "search"):
        argv += ["--budget-nodes", draw(st.integers(-1, 300).map(str))]
    if noisy and not draw(st.integers(0, 4)):
        argv.append(draw(st.sampled_from(["--jobs", "2", "-h", "--p", "--auto"])))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=cli_argv(), collecting=st.booleans())
def test_every_failure_is_one_json_object_with_its_exit_code(argv, collecting):
    """The exit code is one of 0-5, no exception escapes main, and each failure
    writes one JSON error object carrying its code; search's exit 4 and 5 write
    none. The collector is left as it was found."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, token in enumerate(argv):
            if isinstance(token, _File):
                args.append(os.path.join(tmp, f"in{i}.json"))
                Path(args[-1]).write_bytes(token)
            else:
                args.append(os.path.join(tmp, token) if isinstance(token, _Out) else token)
        err = io.StringIO()
        with (collector(collecting), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse: a usage error, or -h
                code = exc.code
            assert gc.isenabled() is collecting
    err = err.getvalue()
    assert code in range(6)
    if code == 0 or (argv[0] == "search" and code in (4, 5)):
        assert err == ""
    else:
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["code"] == code
