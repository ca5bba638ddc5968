import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcordial.graph import JSON_CHUNK, Graph, make_complete, make_cycle, make_path
from legcordial.labeling import (
    AdmissionError,
    Labeling,
    edge_label,
    induced_tally,
    is_cordial,
    labeling_from_json,
    labeling_json_pieces,
    labeling_to_json,
    rho_eta,
    tally_report,
)
from legcordial.numtheory import LegendreContext

from oracles import all_labelings, brute_tally

CTX3 = LegendreContext(3)
CTX5 = LegendreContext(5)


def test_labeling_validation():
    g = make_path(3)
    Labeling(g, (2, 1, 3))
    with pytest.raises(ValueError):
        Labeling(g, (1, 2, 2))
    with pytest.raises(ValueError):
        Labeling(g, (0, 1, 2))
    with pytest.raises(ValueError):
        Labeling(g, (1, 2))
    with pytest.raises(ValueError):
        Labeling(g, (1, 2, 3, 4))
    # entries must be exact ints: 2.0 == 2 and True == 1 would pass the rest
    for assign, bad in (((1.0, 2.0, 3.0), "1.0"), ((True, 2, 3), "True"), ((1, 2, "3"), "'3'")):
        with pytest.raises(TypeError, match=f"labeling entry must be an integer, got {bad}"):
            Labeling(make_cycle(3), assign)


def test_edge_label_examples():
    assert edge_label(3, CTX3) == 0  # divisible by p
    assert edge_label(4, CTX3) == 1  # 4 = 1, a residue
    assert edge_label(5, CTX3) == 0  # 5 = 2, (2/3) = -1


def test_tally_c3_identity():
    lab = Labeling(make_cycle(3), (1, 2, 3))
    tally = induced_tally(lab, CTX3)
    assert (tally.e0, tally.e1) == (2, 1)
    assert tally.difference == -1  # d = e1 - e0, as search uses it
    assert tally.is_cordial
    assert is_cordial(lab, CTX3)


def test_tally_k2():
    lab = Labeling(make_path(2), (1, 2))
    assert (induced_tally(lab, CTX3).e0, induced_tally(lab, CTX3).e1) == (1, 0)
    assert is_cordial(lab, CTX3)


def test_tally_c5_cyclic_order():
    lab = Labeling(make_cycle(5), (2, 1, 3, 5, 4))
    tally = induced_tally(lab, CTX5)
    assert (tally.e0, tally.e1) == (2, 3)
    rho, eta = rho_eta(lab, CTX5)
    assert (len(rho), len(eta)) == (3, 2)


def test_k4_never_cordial_mod3():
    g = make_complete(4)
    for assign in all_labelings(4):
        tally = induced_tally(Labeling(g, assign), CTX3)
        assert (tally.e0, tally.e1) == (4, 2)
        assert not tally.is_cordial


def test_rho_eta_examples():
    lab = Labeling(make_cycle(3), (1, 2, 3))
    # sums are (0,1)->3, (0,2)->4, (1,2)->5; only 4 reduces to a residue
    assert rho_eta(lab, CTX3) == ({(0, 2)}, {(0, 1), (1, 2)})
    lab = Labeling(make_path(2), (1, 2))
    assert rho_eta(lab, CTX3) == (frozenset(), {(0, 1)})


def test_admission_error_on_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    lab = Labeling(g, (1, 2, 3, 4))
    with pytest.raises(AdmissionError):
        is_cordial(lab, CTX3)
    # induced_tally itself has no admission gate
    induced_tally(lab, CTX3)


@given(st.permutations(range(1, 6)))
@settings(max_examples=60)
def test_tally_matches_rho_eta_and_oracle(perm):
    g = make_cycle(5)
    lab = Labeling(g, tuple(perm))
    tally = induced_tally(lab, CTX5)
    rho, eta = rho_eta(lab, CTX5)
    assert tally.e0 == len(eta)
    assert tally.e1 == len(rho)
    assert rho | eta == set(g.edges)
    assert not rho & eta
    assert (tally.e0, tally.e1) == brute_tally(g.edges, perm, 5)


@given(st.integers(min_value=2, max_value=400), st.sampled_from([3, 5, 7, 11]))
@settings(max_examples=80)
def test_edge_label_depends_only_on_sum_mod_p(total, p):
    ctx = LegendreContext(p)
    assert edge_label(total, ctx) == edge_label(total + p, ctx)
    assert edge_label(total, ctx) == edge_label(total % p + p, ctx)


def test_labeling_json_round_trip():
    g = make_path(3)
    lab = Labeling(g, (2, 1, 3))
    obj = labeling_to_json(lab, 3)
    assert obj == {"p": 3, "assign": [2, 1, 3]}
    lab2, p = labeling_from_json(obj, g)
    assert lab2 == lab and p == 3
    with pytest.raises(ValueError):
        labeling_from_json({"p": 3}, g)


@pytest.mark.parametrize(
    "n,p",
    [(1, 3), (JSON_CHUNK, 5), (JSON_CHUNK + 1, 7), (2 * JSON_CHUNK + 3, 9973)],
    ids=["one-label", "one-chunk", "chunk-plus-one", "three-chunks"],
)
def test_labeling_json_pieces_are_the_dumps_text(n, p):
    lab = Labeling(make_path(n), tuple(random.Random(n).sample(range(1, n + 1), n)))
    pieces = list(labeling_json_pieces(lab, p))
    assert "".join(pieces) == json.dumps(labeling_to_json(lab, p))
    # the opening, one piece per chunk of at most JSON_CHUNK labels, the closing
    chunks = [json.loads("[" + piece.removeprefix(", ") + "]") for piece in pieces[1:-1]]
    assert list(map(len, chunks)) == [min(JSON_CHUNK, n - i) for i in range(0, n, JSON_CHUNK)]


def test_tally_report():
    assert tally_report(induced_tally(Labeling(make_cycle(3), (1, 2, 3)), CTX3)) == {
        "e0": 2,
        "e1": 1,
        "cordial": True,
    }
