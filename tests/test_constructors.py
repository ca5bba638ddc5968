import re

import pytest

from legcordial import constructors
from legcordial.constructors import (
    BALANCE_THEOREMS,
    BASE_LABELINGS,
    THEOREMS,
    ConnectivityViolation,
    ConstructionError,
    ConstructionRecipe,
    HypothesisViolation,
    balance_form,
    construct_cartesian,
    construct_corona,
    construct_corona_path,
    construct_join,
    construct_kp_tensor,
    construct_lexicographic,
    construct_strong,
    construct_tensor,
    normalize_theorem,
    run_recipe,
)
from legcordial.graph import (
    Graph,
    make_complete,
    make_cycle,
    make_path,
    make_star,
)
from legcordial.labeling import (
    AdmissionError,
    EdgeTally,
    Labeling,
    rho_eta,
)
from legcordial.numtheory import LegendreContext

from oracles import brute_tally


def verify(graph, lab, pred, p):
    """Independent re-check of every constructor postcondition."""
    assert sorted(lab.assign) == list(range(1, graph.order + 1))
    assert brute_tally(graph.edges, lab.assign, p) == (pred.e0, pred.e1)
    assert abs(pred.e0 - pred.e1) <= 1


# ---------------------------------------------------------------------------
# corona with the path on p-1 vertices
# ---------------------------------------------------------------------------

def test_corona_path_c3_p3():
    g, lab, pred = construct_corona_path(make_cycle(3), 3)
    assert g.order == 9
    assert lab.assign[6:9] == (2, 5, 8)  # host labels
    assert lab.assign[0:2] == (3, 1)  # first copy, along the path
    assert (pred.e0, pred.e1) == (6, 6)
    verify(g, lab, pred, 3)


def test_corona_path_p2_p5():
    g, lab, pred = construct_corona_path(make_path(2), 5)
    assert (pred.e0, pred.e1) == (8, 7)
    verify(g, lab, pred, 5)


def test_corona_path_rejects_wrong_prime_class():
    with pytest.raises(HypothesisViolation, match="mod 8"):
        construct_corona_path(make_cycle(3), 7)


def test_corona_path_rejects_bad_size():
    with pytest.raises(HypothesisViolation):
        construct_corona_path(make_complete(4), 3)  # size 6 outside {3, 4, 5}
    with pytest.raises(HypothesisViolation):
        construct_corona_path(make_complete(5), 5)  # size 10 outside {4, 5, 6}


def test_corona_path_rejects_disconnected():
    with pytest.raises(AdmissionError):
        construct_corona_path(Graph(4, [(0, 1), (2, 3)]), 3)


@pytest.mark.parametrize("p", [3, 5, 11, 13])
@pytest.mark.parametrize("g", [make_path(4), make_cycle(5), make_star(6)])
def test_corona_path_families(p, g):
    graph, lab, pred = construct_corona_path(g, p)
    n, q = g.order, g.size
    assert pred.e0 == n * (p - 3) // 2 + n * (p - 1) // 2 + n
    assert pred.e1 == n * (p - 1) // 2 + n * (p - 3) // 2 + q
    verify(graph, lab, pred, p)


# ---------------------------------------------------------------------------
# tensor with a complete factor
# ---------------------------------------------------------------------------

def test_kp_tensor_examples():
    g, lab, pred = construct_kp_tensor(make_path(2), 3)
    assert g.size == 6
    assert (pred.e0, pred.e1) == (3, 3)
    verify(g, lab, pred, 3)
    g, lab, pred = construct_kp_tensor(make_path(3), 3)
    assert (pred.e0, pred.e1) == (6, 6)
    verify(g, lab, pred, 3)


def test_kp_tensor_rejects_odd_cycle():
    with pytest.raises(HypothesisViolation, match="bipartite"):
        construct_kp_tensor(make_cycle(3), 3)


def test_kp_tensor_rejects_disconnected():
    with pytest.raises(AdmissionError):
        construct_kp_tensor(Graph(4, [(0, 1), (2, 3)]), 3)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize(
    "g", [make_path(4), make_cycle(4), make_cycle(6), make_star(5)]
)
def test_kp_tensor_balanced(p, g):
    graph, lab, pred = construct_kp_tensor(g, p)
    half = g.size * p * (p - 1) // 2
    assert (pred.e0, pred.e1) == (half, half)
    verify(graph, lab, pred, p)


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------

def test_join_accepts_balanced_p3_base():
    g1 = make_path(3)
    lab1 = Labeling(g1, (2, 1, 3))  # rho=1, eta=1
    g2 = make_complete(1)
    g, lab, pred = construct_join(lab1, Labeling(g2, (1,)), 3)
    assert (pred.e0, pred.e1) == (3, 2)
    verify(g, lab, pred, 3)


def test_join_rejects_unbalanced_base():
    g1 = make_cycle(3)  # every labeling gives rho - eta = -1
    g2 = make_complete(1)
    with pytest.raises(HypothesisViolation) as err:
        construct_join(Labeling(g1, (1, 2, 3)), Labeling(g2, (1,)), 3)
    assert err.value.lhs == -1
    assert err.value.rhs == (0, 2)


def test_join_rejects_wrong_order():
    g1 = make_path(4)  # order not a multiple of 3
    g2 = make_complete(1)
    with pytest.raises(HypothesisViolation, match="multiple of p"):
        construct_join(Labeling(g1, (1, 2, 3, 4)), Labeling(g2, (1,)), 3)


# ---------------------------------------------------------------------------
# corona with base labelings
# ---------------------------------------------------------------------------

def test_corona_window_arithmetic():
    # order 2 host, satellite order 3, p=3: window is {1, 2, 3}
    form = balance_form("corona", make_path(2), Graph(3, [(0, 1)]), 3)
    assert (form.coef1, form.coef2) == (1, 2)
    assert (form.lo, form.hi) == (1, 3)


def test_corona_accepted_instance():
    g1 = make_path(2)
    g2 = Graph(3, [(0, 1)])
    lab2 = Labeling(g2, (1, 3, 2))  # edge sum 4 is a residue: rho - eta = 1
    g, lab, pred = construct_corona(Labeling(g1, (1, 2)), lab2, 3)
    assert (pred.e0, pred.e1) == (5, 4)
    verify(g, lab, pred, 3)


def test_corona_rejects_wrong_satellite_order():
    g1, g2 = make_path(2), make_path(4)
    with pytest.raises(HypothesisViolation, match="multiple of p"):
        construct_corona(Labeling(g1, (1, 2)), Labeling(g2, (1, 2, 3, 4)), 3)


def test_corona_rejects_disconnected_host():
    g1 = Graph(4, [(0, 1), (2, 3)])
    g2 = make_path(3)
    with pytest.raises(ConnectivityViolation):
        construct_corona(Labeling(g1, (1, 2, 3, 4)), Labeling(g2, (1, 2, 3)), 3)


# ---------------------------------------------------------------------------
# lexicographic
# ---------------------------------------------------------------------------

H7 = Graph(7, [(0, 6), (1, 5), (2, 4), (1, 6), (2, 5), (3, 6), (4, 5)])


def test_lexicographic_accepted_p7():
    # every edge sum of the identity labeling reduces to a residue mod 7
    lab2 = Labeling(H7, tuple(range(1, 8)))
    assert rho_eta(lab2, LegendreContext(7)).rho_minus_eta == 7
    g, lab, pred = construct_lexicographic(make_cycle(3), lab2, 7)
    assert g.order == 21 and g.size == 168
    assert (pred.e0, pred.e1) == (84, 84)
    verify(g, lab, pred, 7)


def test_lexicographic_rejects_non_unicyclic():
    with pytest.raises(HypothesisViolation, match="size equal to its order"):
        balance_form("lexicographic", make_path(3), H7, 7)


def test_lexicographic_rejects_unbalanced():
    g2 = make_cycle(3)
    with pytest.raises(HypothesisViolation):
        construct_lexicographic(make_cycle(3), Labeling(g2, (1, 2, 3)), 3)


# ---------------------------------------------------------------------------
# cartesian
# ---------------------------------------------------------------------------

def test_cartesian_c5_c4():
    g1 = make_cycle(5)
    lab1 = Labeling(g1, (2, 1, 3, 5, 4))  # rho=3, eta=2
    g, lab, pred = construct_cartesian(lab1, make_cycle(4), 5)
    assert (pred.e0, pred.e1) == (20, 20)
    verify(g, lab, pred, 5)


def test_cartesian_rejects_non_integral_k():
    g1 = make_cycle(5)
    lab1 = Labeling(g1, (2, 1, 3, 5, 4))
    with pytest.raises(HypothesisViolation, match="integer multiple"):
        construct_cartesian(lab1, make_path(3), 5)


def test_cartesian_same_base_other_cycle():
    # the C5 base labeling also serves g2 = C3 (k = 1); difference stays 0
    g1 = make_cycle(5)
    lab1 = Labeling(g1, (2, 1, 3, 5, 4))
    g, lab, pred = construct_cartesian(lab1, make_cycle(3), 5)
    assert pred.e0 == pred.e1 == 15
    verify(g, lab, pred, 5)


def test_cartesian_degenerate_k0():
    g1 = make_path(3)
    lab1 = Labeling(g1, (2, 1, 3))  # rho = eta = 1, target m*k = 0
    g, lab, pred = construct_cartesian(lab1, make_complete(1), 3)
    assert g.order == 3 and g.size == 2
    assert (pred.e0, pred.e1) == (1, 1)
    verify(g, lab, pred, 3)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_p3_c3():
    g1 = make_path(3)
    lab1 = Labeling(g1, (2, 1, 3))
    g, lab, pred = construct_tensor(lab1, make_cycle(3), 3)
    assert g.size == 12
    assert (pred.e0, pred.e1) == (6, 6)
    verify(g, lab, pred, 3)


def test_tensor_rejects_unbalanced_c3():
    g1 = make_cycle(3)
    with pytest.raises(HypothesisViolation):
        construct_tensor(Labeling(g1, (1, 2, 3)), make_cycle(3), 3)


def test_tensor_rejects_bipartite_pair():
    g1 = make_path(3)
    lab1 = Labeling(g1, (2, 1, 3))
    with pytest.raises(ConnectivityViolation):
        construct_tensor(lab1, make_cycle(4), 3)


# ---------------------------------------------------------------------------
# strong
# ---------------------------------------------------------------------------

def strong_formula(n, rho1, eta1, p):
    base = 3 * (p - 1) // 2 * (n - 1)
    e0 = n * eta1 + base + 3 * (n - 1) + 2 * eta1 * (n - 1)
    e1 = n * rho1 + base + 2 * rho1 * (n - 1)
    return e0, e1


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("eta1", range(0, 6))
def test_strong_difference_is_always_one(n, eta1):
    e0, e1 = strong_formula(n, eta1 + 1, eta1, 3)
    assert e1 - e0 == 1


def test_strong_c9_p4():
    g1 = make_cycle(9)
    # find a base labeling with rho - eta = 1 by a tiny local scan
    from legcordial.search import DiffWindow, SearchSpec, search_labeling

    res = search_labeling(SearchSpec(g1, 3, objective=DiffWindow.exact(1)))
    assert res.outcome == "found"
    lab1 = Labeling(g1, res.labeling)
    g, lab, pred = construct_strong(lab1, make_path(4), 3)
    assert (pred.e0, pred.e1) == (58, 59)
    verify(g, lab, pred, 3)


def test_strong_rejects_non_tree():
    g1 = make_cycle(9)
    with pytest.raises(HypothesisViolation, match="tree"):
        balance_form("strong", g1, make_cycle(4), 3)


def test_strong_rejects_wrong_order():
    with pytest.raises(HypothesisViolation, match="3\\*p"):
        balance_form("strong", make_cycle(6), make_path(2), 3)


# ---------------------------------------------------------------------------
# recipe plumbing
# ---------------------------------------------------------------------------

def test_normalize_theorem():
    assert normalize_theorem("LEX") == "lexicographic"
    assert normalize_theorem("cart") == "cartesian"
    assert normalize_theorem("corona-path") == "corona-path"
    with pytest.raises(ValueError):
        normalize_theorem("unknown")


def test_run_recipe_round_trips():
    recipe = ConstructionRecipe("corona-path", 3, make_cycle(3), None)
    g, lab, pred = run_recipe(recipe)
    assert (pred.e0, pred.e1) == (6, 6)
    recipe = ConstructionRecipe("kp-tensor", 3, None, make_path(2))
    g, lab, pred = run_recipe(recipe)
    assert (pred.e0, pred.e1) == (3, 3)
    recipe = ConstructionRecipe(
        "join", 3, make_path(3), make_complete(1), lab_g1=(2, 1, 3), lab_g2=(1,)
    )
    g, lab, pred = run_recipe(recipe)
    assert (pred.e0, pred.e1) == (3, 2)


@pytest.mark.parametrize(
    "theorem,lab_g1,missing",
    [
        ("join", None, "lab_g1"),
        ("join", (1, 2, 3), "lab_g2"),
        ("corona", None, "lab_g1"),
        ("corona", (1, 2, 3), "lab_g2"),
        ("lexicographic", (1, 2, 3), "lab_g2"),
        ("cartesian", None, "lab_g1"),
        ("tensor", None, "lab_g1"),
        ("strong", None, "lab_g1"),
    ],
)
def test_run_recipe_names_the_missing_labeling(theorem, lab_g1, missing):
    recipe = ConstructionRecipe(theorem, 3, make_path(3), make_complete(1), lab_g1=lab_g1)
    with pytest.raises(ValueError, match=f"^recipe for {theorem} needs {missing}$"):
        run_recipe(recipe)


def test_every_theorem_has_a_public_constructor():
    # recipe dispatch and the benchmark's tracer look constructors up by name
    import legcordial
    from legcordial import constructors

    for theorem in THEOREMS:
        name = "construct_" + theorem.replace("-", "_")
        assert callable(getattr(constructors, name)), name
        assert getattr(legcordial, name) is getattr(constructors, name)
    for name in ("run_recipe", "balance_form"):
        assert getattr(legcordial, name) is getattr(constructors, name)


VALID_FACTORS = {
    "join": (make_path(3), make_complete(1), 3),
    "corona": (make_path(2), Graph(3, [(0, 1)]), 3),
    "lexicographic": (make_cycle(3), H7, 7),
    "cartesian": (make_cycle(5), make_cycle(4), 5),
    "tensor": (make_path(3), make_cycle(3), 3),
    "strong": (make_cycle(9), make_path(4), 3),
}


@pytest.mark.parametrize("theorem", BALANCE_THEOREMS)
def test_a_coefficient_is_zero_exactly_for_an_unlabeled_factor(theorem):
    # _base_tallies takes d = 0 for a factor without a base labeling, which is
    # right only because that factor's coefficient is 0
    form = balance_form(theorem, *VALID_FACTORS[theorem])
    assert (form.coef1 != 0, form.coef2 != 0) == BASE_LABELINGS[theorem]


@pytest.mark.parametrize(
    "theorem,constants",
    [
        ("join", (1, 1, None)),
        ("corona", (2, 1, None)),
        ("lexicographic", (3, 1, None)),
        ("cartesian", (4, 1, 1)),
        ("tensor", (1, 3, None)),
        ("strong", (4, None, None)),
    ],
)
def test_a_form_names_its_theorem_constants(theorem, constants):
    form = balance_form(theorem, *VALID_FACTORS[theorem])
    assert (form.n, form.m, form.k) == constants


@pytest.mark.parametrize("theorem", ["corona-path", "kp-tensor"])
def test_a_theorem_without_base_labelings_has_no_balance_form(theorem):
    assert theorem in THEOREMS and theorem not in BALANCE_THEOREMS
    with pytest.raises(ValueError, match=f"^{theorem} carries no balance hypothesis$"):
        balance_form(theorem, make_path(3), make_path(3), 3)


# ---------------------------------------------------------------------------
# the verifier's check on every prediction
# ---------------------------------------------------------------------------

def test_a_wrong_balance_prediction_raises(monkeypatch):
    swept = constructors._swept

    def off_by_one(*args):
        t = swept(*args)
        return EdgeTally(t.e0 + 1, t.e1)

    monkeypatch.setattr(constructors, "_swept", off_by_one)
    lab1 = Labeling(make_path(3), (2, 1, 3))
    with pytest.raises(ConstructionError, match=re.escape("verifier tally (3,2) != predicted (4,2)")):
        construct_join(lab1, Labeling(make_complete(1), (1,)), 3)


def test_a_wrong_single_factor_prediction_raises(monkeypatch):
    tally = constructors.induced_tally

    def off_by_one(lab, ctx):
        t = tally(lab, ctx)
        return EdgeTally(t.e0 + 1, t.e1)

    monkeypatch.setattr(constructors, "induced_tally", off_by_one)
    with pytest.raises(ConstructionError, match=re.escape("verifier tally (4,3) != predicted (3,3)")):
        construct_kp_tensor(make_path(2), 3)


def test_a_true_prediction_that_is_not_cordial_raises(monkeypatch):
    # with the balance window opened up, C3 labeled 1,2,3 (d = -1) joined with
    # K1 at p=3 has d1 + d2 = -1, outside [0, 2]: the count (4,2) is right
    # and not cordial
    form = constructors.balance_form

    def open_window(*args):
        f = form(*args)
        return constructors.BalanceForm(f.coef1, f.coef2, -100, 100, f.n, f.m, f.k)

    monkeypatch.setattr(constructors, "balance_form", open_window)
    lab1 = Labeling(make_cycle(3), (1, 2, 3))
    with pytest.raises(ConstructionError, match=re.escape("prediction (4,2) is not cordial")):
        construct_join(lab1, Labeling(make_complete(1), (1,)), 3)
