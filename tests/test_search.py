import gc
import math
import random
import time
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcordial.constructors import ConnectivityViolation, HypothesisViolation, run_recipe
from legcordial.graph import Graph, is_connected, make_complete, make_cycle, make_path, make_star
from legcordial.labeling import Labeling, edge_label, induced_tally
from legcordial.numtheory import LegendreContext
from legcordial.products import cartesian, join
from legcordial import constructors, search, symmetry
from legcordial.search import (
    MODES,
    Budget,
    DiffWindow,
    SearchResult,
    SearchSpec,
    achievable_differences,
    find_base_labelings,
    search_labeling,
)

from oracles import brute_cordial_count, brute_diff_witnesses, brute_tally, residue_dp_counts


def test_c3_always_cordial():
    res = search_labeling(SearchSpec(make_cycle(3), 3))
    assert res.outcome == "found"
    res = search_labeling(SearchSpec(make_cycle(3), 3, mode="count-all"))
    assert res.count == 6 and res.complete


def test_k4_has_no_cordial_labeling_mod3():
    res = search_labeling(SearchSpec(make_complete(4), 3, mode="prove-none"))
    assert res.outcome == "none"
    assert res.complete
    # K4 is one run of twins: one labeling, 1 2 3 4, one node per position
    assert res.nodes == 4


def test_c5_target_difference():
    res = search_labeling(SearchSpec(make_cycle(5), 5, objective=DiffWindow.exact(1)))
    assert res.outcome == "found"
    tally = induced_tally(Labeling(make_cycle(5), res.labeling), LegendreContext(5))
    assert tally.difference == 1
    # the documented witness class member
    tally = induced_tally(Labeling(make_cycle(5), (2, 1, 3, 5, 4)), LegendreContext(5))
    assert tally.difference == 1


def test_found_labeling_satisfies_objective():
    for g, p in [(make_path(4), 3), (make_star(5), 5), (make_cycle(6), 3)]:
        res = search_labeling(SearchSpec(g, p))
        if res.outcome == "found":
            e0, e1 = brute_tally(g.edges, res.labeling, p)
            assert abs(e0 - e1) <= 1


@pytest.mark.parametrize(
    "g,p",
    [
        (make_path(4), 3),
        (make_cycle(5), 5),
        (make_star(5), 3),
        (make_complete(4), 3),
        (make_cycle(6), 3),
        (make_path(7), 5),
        # orders 6-7 with p < n, where residue classes hold two or more labels
        (make_cycle(6), 5),
        (make_path(7), 3),
        (make_star(7), 5),
        (Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]), 3),
        (Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 1)]), 5),
    ],
)
def test_count_all_matches_naive_enumeration(g, p):
    res = search_labeling(SearchSpec(g, p, mode="count-all"))
    assert res.complete
    assert res.count == brute_cordial_count(g.edges, g.order, p)


@st.composite
def tiny_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    spanning = [(i, draw(st.integers(min_value=0, max_value=i - 1))) for i in range(1, n)]
    pool = list(combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Graph(n, spanning + list(extra))


@given(tiny_connected_graphs(), st.sampled_from([3, 5, 7]))
@settings(max_examples=40, deadline=None)
def test_pruning_is_sound(g, p):
    """Pruned search and naive enumeration agree on the satisfiability verdict."""
    res = search_labeling(SearchSpec(g, p, mode="count-all"))
    assert res.complete
    assert res.count == brute_cordial_count(g.edges, g.order, p)


def test_determinism():
    spec = SearchSpec(make_cycle(6), 3, objective=DiffWindow.around(1))
    a = search_labeling(spec)
    b = search_labeling(spec)
    assert a == b


def test_budget_exhaustion_is_distinct():
    # the proof needs 4 nodes (test_k4_has_no_cordial_labeling_mod3)
    res = search_labeling(
        SearchSpec(make_complete(4), 3, mode="prove-none", budget=Budget(max_nodes=3))
    )
    assert res.outcome == "exhausted"
    assert not res.complete
    assert res.nodes == 3


def test_order_ceiling():
    SearchSpec(make_path(64), 3)
    with pytest.raises(ValueError, match="graph order 65 exceeds the search ceiling 64"):
        SearchSpec(make_path(65), 3)


def test_search_spec_has_no_jobs():
    # one sequential engine: no verdict can depend on a worker count
    with pytest.raises(TypeError):
        SearchSpec(make_cycle(5), 5, jobs=2)


def test_time_budget_bounds():
    # Count-all C12 at p=13 walks one labeling per orbit, 12! / 24 of them.
    # No engine spends 10**9 nodes in 0.3 s, so only the deadline stops it.
    budget = Budget(max_nodes=10**9, max_seconds=0.3)
    start = time.monotonic()
    res = search_labeling(SearchSpec(make_cycle(12), 13, mode="count-all", budget=budget))
    assert res.outcome == "exhausted"
    # Expected about 0.3 s: the deadline is polled every 4096 nodes (a few
    # ms), so 1 s leaves room for a machine several times slower.
    assert time.monotonic() - start < 1.0


# Outcomes, counts and first witnesses recorded before the engine exploited
# residue classes, with the node counts it needed then. Count-all C7 p=5
# now takes the stabilizer chain instead (test_cycle7_p5_count_all_is_pinned).
SYMMETRIC_INSTANCES = [
    (make_cycle(7), 5, "count-all", DiffWindow.cordial(),
     "found", 2408, (1, 2, 3, 4, 7, 6, 5), 13283),
    (make_path(7), 3, "count-all", DiffWindow.cordial(),
     "found", 1056, (5, 1, 2, 3, 4, 6, 7), 10387),
    (make_complete(7), 5, "prove-none", DiffWindow.cordial(),
     "none", None, None, 13699),
    (make_star(8), 3, "count-all", DiffWindow.cordial(),
     "found", 10080, (3, 1, 2, 4, 5, 6, 7, 8), 99520),
    (make_cycle(8), 3, "count-all", DiffWindow.around(2),
     "found", 2304, (1, 2, 5, 8, 3, 4, 6, 7), 57868),
]


@pytest.mark.parametrize(
    "g,p,mode,window,outcome,count,witness,nodes_without_symmetry", SYMMETRIC_INSTANCES
)
def test_residue_symmetry_keeps_results(
    g, p, mode, window, outcome, count, witness, nodes_without_symmetry
):
    res = search_labeling(SearchSpec(g, p, objective=window, mode=mode))
    assert (res.outcome, res.count, res.labeling) == (outcome, count, witness)
    assert res.complete
    assert res.nodes < nodes_without_symmetry


def _bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


K222 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2])
# search order 4 | 2 3 | 0 1 | 5 6: three runs of two twins each
THREE_RUNS = Graph(7, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)])


# Outcomes, counts and first witnesses of the engine before twin runs, with
# the nodes needed before the label ceilings: by the twin runs at p < n, and
# by the stabilizer chain at p >= n (join(K2, C5) p=7 needed 6 793 with twin
# runs). Before twin runs, complete:12 p=13 and p=5 and star:12 ended
# exhausted at 2 M nodes, so their verdicts are checked here instead: every
# labeling of K_n has the same tally, and every labeling of K_{1,11} at p=13
# is cordial.
TWIN_INSTANCES = [
    (make_complete(12), 13, "prove-none", "none", None, None, 4095),
    (make_complete(12), 5, "prove-none", "none", None, None, 431),
    (make_complete(9), 7, "prove-none", "none", None, None, 287),
    (make_star(12), 13, "count-all", "found", math.factorial(12), tuple(range(1, 13)), 24576),
    (join(make_complete(2), make_cycle(5)), 7, "count-all",
     "found", 960, (1, 2, 3, 5, 4, 7, 6), 1637),
    (make_complete(7), 5, "prove-none", "none", None, None, 71),
    (make_complete(7), 11, "prove-none", "none", None, None, 127),
]
# The nodes with the label ceilings, by (graph, p). A complete graph is one
# run or one orbit, so its only labeling is 1..n, at one node per position.
TWIN_NODES = {
    (make_complete(12), 13): 12,
    (make_complete(12), 5): 12,
    (make_complete(9), 7): 9,
    (make_star(12), 13): 364,
    (join(make_complete(2), make_cycle(5)), 7): 1234,
    (make_complete(7), 5): 7,
    (make_complete(7), 11): 7,
}


@pytest.mark.parametrize("g,p,mode,outcome,count,witness,nodes_before", TWIN_INSTANCES)
def test_twin_runs_keep_results(g, p, mode, outcome, count, witness, nodes_before):
    res = search_labeling(SearchSpec(g, p, mode=mode))
    assert (res.outcome, res.count, res.labeling) == (outcome, count, witness)
    assert res.nodes == TWIN_NODES[g, p] < nodes_before
    assert res.complete
    if g.size == g.order * (g.order - 1) // 2:
        e0, e1 = brute_tally(g.edges, range(1, g.order + 1), p)
        assert abs(e0 - e1) > 1


def test_star12_p13_is_cordial_for_every_labeling():
    # a star's tally depends only on the centre's label
    g = make_star(12)
    for centre in range(1, 13):
        assign = [centre] + [lab for lab in range(1, 13) if lab != centre]
        e0, e1 = brute_tally(g.edges, assign, 13)
        assert abs(e0 - e1) <= 1


def _check_against_oracles(g: Graph, p: int) -> None:
    """Every mode and achievable_differences against tests/oracles.py, down to
    the first witness: the least in search order, labels ascending over the
    positions taken by decreasing degree, ties in index order."""
    deg = [0] * g.order
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    order = sorted(range(g.order), key=lambda v: -deg[v])

    def key(assign):
        return tuple(assign[v] for v in order)

    want = brute_diff_witnesses(g.edges, g.order, p)
    cordial = [w for d, ws in want.items() if abs(d) <= 1 for w in ws]
    first = min(cordial, key=key) if cordial else None
    res = search_labeling(SearchSpec(g, p, mode="count-all"))
    assert (res.complete, res.count, res.labeling) == (True, len(cordial), first)
    res = search_labeling(SearchSpec(g, p))
    assert (res.outcome, res.labeling) == ("found" if cordial else "none", first)
    # prove-none is find-first, down to the nodes
    assert search_labeling(SearchSpec(g, p, mode="prove-none")) == res
    got, complete, _ = achievable_differences(g, p)
    assert complete
    assert set(got) == set(want)
    for d, assign in got.items():
        assert assign == min(want[d], key=key)


def _engine(g: Graph, p: int, count_all: bool = False) -> search._Engine:
    """An engine as _Probes.run has it when its first run starts: one that
    rents 0 nodes, as count-all's does, has bought the chain."""
    engine = search._Engine(g, p, count_all)
    if engine.chain_in == 0:
        engine._buy_chain()
    return engine


def _above_and_runs(g: Graph, p: int, count_all: bool = False) -> tuple[list[int], list[int]]:
    """Each search position's above bound and its offset in its twin run (1
    when it is in none)."""
    engine = _engine(g, p, count_all)
    runs = [1] * g.order
    for k, t in engine.twins:
        runs[k] = t
    return [step[2] for step in engine.steps], runs


def _largest_labels(g: Graph, p: int, count_all: bool = False) -> list[int]:
    """The largest label each search position may take: its ceiling - 1."""
    return [step[3] - 1 for step in _engine(g, p, count_all).steps]


def test_twin_runs_are_found():
    # p < n: twins at consecutive positions form runs
    engine = search._Engine(THREE_RUNS, 3)
    assert engine.order == [4, 2, 3, 0, 1, 5, 6]
    assert _above_and_runs(THREE_RUNS, 3) == ([-1, -1, 1, -1, 3, -1, 5], [1, 1, 2, 1, 2, 1, 2])
    assert _above_and_runs(make_complete(5), 3) == ([-1, 0, 1, 2, 3], [1, 2, 3, 4, 5])
    assert _above_and_runs(make_cycle(5), 3) == ([-1] * 5, [1] * 5)


def test_twin_pairs_are_chain_constraints():
    # p >= n, count-all, which chooses before its first run. Where |Aut| =
    # T, the twin runs cut as much as the chain, and they stay: THREE_RUNS
    # (|Aut| = T = 2!^3 = 8) at p = 7, and K5 (T = 5! = n!) at p = 5
    assert _above_and_runs(THREE_RUNS, 7, True) == (
        [-1, -1, 1, -1, 3, -1, 5], [1, 1, 2, 1, 2, 1, 2]
    )
    assert _above_and_runs(make_complete(5), 5, True) == ([-1, 0, 1, 2, 3], [1, 2, 3, 4, 5])
    # K3,3 (|Aut| 72 > T = 3! * 3! = 36) gets the chain: no runs, each twin
    # pair is an order constraint, and so is the swap of the two sides
    assert _above_and_runs(_bipartite(3, 3), 7, True) == ([-1, 0, 1, 0, 3, 4], [1] * 6)
    # C5 has no twins: rotations put every position in O_0, and the
    # reflection fixing vertex 0 swaps its neighbours 1 and 4
    assert _above_and_runs(make_cycle(5), 5, True) == ([-1, 0, 0, 0, 1], [1] * 5)


def test_label_ceilings():
    # p >= n under the chain: position a's label is at most n - |O_a| + 1.
    # C5 has |O_0| = 5 (rotations) and |O_1| = 2 (the reflection fixing
    # position 0).
    assert _largest_labels(make_cycle(5), 5, True) == [1, 4, 5, 5, 5]
    # K5 keeps its twin run (T = 5! = |Aut|), whose ceilings are the
    # chain's: n - (R - t) = n - |O_a| + 1
    assert _largest_labels(make_complete(5), 5, True) == [1, 2, 3, 4, 5]
    # p < n: offset t of a run of length R is at most n - (R - t)
    assert _largest_labels(make_complete(5), 3) == [1, 2, 3, 4, 5]
    assert _largest_labels(THREE_RUNS, 3) == [7, 6, 7, 6, 7, 6, 7]
    assert _largest_labels(make_cycle(5), 3) == [5] * 5


PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
PRISM = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
Q3 = Graph(8, [(u, u ^ (1 << i)) for u in range(8) for i in range(3) if u < u ^ (1 << i)])


@pytest.mark.parametrize(
    "g,aut",
    [
        (make_complete(12), math.factorial(12)),
        (make_cycle(12), 24),
        (make_star(12), math.factorial(11)),
        (_bipartite(6, 6), 2 * math.factorial(6) ** 2),
        (PETERSEN, 120),
        (cartesian(make_cycle(3), make_cycle(4)), 48),
        (make_path(12), 2),
    ],
    ids=["K12", "C12", "star12", "K66", "petersen", "C3xC4", "P12"],
)
def test_aut_weight_is_pinned(g, aut):
    _check_chain_rule(g, aut, 13)
    assert search._Engine(g, 3).q == 3  # find-first: no chain before its rent


def _chain(pn: list[int], deg: list[int]) -> tuple[list[int], list[int]] | None:
    """_stabilizer_chain as symmetry.purchase calls it, with every
    position's _invariant."""
    inv = [symmetry._invariant(pn, deg, k) for k in range(len(pn))]
    return symmetry._stabilizer_chain(pn, deg, inv)


def _check_chain_rule(g: Graph, aut: int, p: int) -> None:
    """|Aut(G)| = ``aut`` from the stabilizer chain on the search positions
    (dense graphs through the complement), and a count-all engine at
    ``p`` >= n keeps the chain exactly when |Aut(G)| > T."""
    engine = search._Engine(g, 3)
    assert math.prod(_chain(engine.pn, engine.dp)[1]) == aut
    engine = _engine(g, p, True)
    assert engine.leaf_weight == (aut if aut > engine.cut else 1)


# Every connected graph of order 2..6, one per isomorphism class.
CORPUS = Path(__file__).parent / "connected_graphs.txt"


def _connected_graphs(path: str | Path = CORPUS) -> dict[int, list[Graph]]:
    """order -> its connected graphs, one per isomorphism class, from a file
    that tests/connected_graphs.py writes; see there for the format."""
    out: dict[int, list[Graph]] = {}
    for line in Path(path).read_text().splitlines():
        n, mask = map(int, line.split())
        pairs = combinations(range(n), 2)
        out.setdefault(n, []).append(Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1]))
    return out


CONNECTED = _connected_graphs()


def _brute_aut_count(g: Graph) -> int:
    edges = set(g.edges)
    return sum(
        all((min(s[u], s[v]), max(s[u], s[v])) in edges for u, v in edges)
        for s in permutations(range(g.order))
    )


@pytest.mark.parametrize(
    "g",
    [
        PRISM,
        THREE_RUNS,
        K222,  # dense: the chain works on the complement
        join(make_complete(2), make_cycle(5)),
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (0, 4)]),
        Graph(7, [(0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (5, 6)]),  # spider, two legs alike
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (3, 5)]),
    ]
    + [pytest.param(g, id=f"order{n}-{i}") for n, gs in CONNECTED.items() for i, g in enumerate(gs)],
)
def test_aut_weight_matches_brute_force(g):
    _check_aut_weight(g)


def _check_aut_weight(g: Graph) -> None:
    """_check_chain_rule at p = 11 against brute force on |Aut(G)|; and
    symmetry.purchase's bound B = prod (cell size)! over the cells of equal
    (degree, _invariant) at least |Aut(G)|."""
    aut = _brute_aut_count(g)
    _check_chain_rule(g, aut, 11)
    pn, deg = [0] * g.order, [0] * g.order
    for u, v in g.edges:
        pn[u] |= 1 << v
        pn[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    cells = Counter(zip(deg, [symmetry._invariant(pn, deg, k) for k in range(g.order)]))
    assert math.prod(map(math.factorial, cells.values())) >= aut


@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize(
    "g",
    [make_cycle(6), make_cycle(7), _bipartite(3, 3), PRISM, Q3],
    ids=["C6", "C7", "K33", "prism", "Q3"],
)
def test_chain_matches_oracles(g, p):
    _check_against_oracles(g, p)


W7 = Graph(7, [(0, k) for k in range(1, 7)] + [(k, k % 6 + 1) for k in range(1, 7)])
K4K2 = cartesian(make_complete(4), make_complete(2))


# At every p, count-all (and find-first once it has rented CHAIN_AFTER
# nodes) uses the chain when |Aut(G)| exceeds T = prod m_r! * prod R!, the
# most that residue classes and twin runs cut. At p < n:
# C6 p=3 has |Aut| 12 > T 8, C7 p=5 14 > 4, C8 p=7 16 > 2, Q3 p=5 48 > 8,
# K4xK2 p=5 48 > 8 and W7 p=5 12 > 4.
@pytest.mark.parametrize(
    "g,p",
    [(make_cycle(6), 3), (make_cycle(7), 5), (make_cycle(8), 7), (Q3, 5), (K4K2, 5), (W7, 5)],
    ids=["C6-p3", "C7-p5", "C8-p7", "Q3-p5", "K4xK2-p5", "W7-p5"],
)
def test_chain_below_p_matches_oracles(g, p):
    engine = _engine(g, p, True)
    assert (engine.q, engine.leaf_weight) == (g.order + 1, _brute_aut_count(g))
    want = brute_diff_witnesses(g.edges, g.order, p)

    def first(witnesses):  # the first in search order: lex-least by position
        return min(witnesses, key=lambda a: [a[v] for v in engine.order])

    cordial = [w for d, ws in want.items() if abs(d) <= 1 for w in ws]
    res = search_labeling(SearchSpec(g, p, mode="count-all"))
    assert (res.outcome, res.count, res.labeling, res.complete) == (
        "found", len(cordial), first(cordial), True
    )
    assert search_labeling(SearchSpec(g, p, mode="prove-none")).labeling == first(cordial)
    for d in range(-g.size, g.size + 1, 2):
        window = DiffWindow.exact(d)
        res = search_labeling(SearchSpec(g, p, window, mode="count-all"))
        witness = first(want[d]) if d in want else None
        assert (res.count, res.labeling) == (len(want.get(d, ())), witness)
        res = search_labeling(SearchSpec(g, p, window, mode="prove-none"))
        outcome = "found" if d in want else "none"
        assert (res.outcome, res.labeling, res.complete) == (outcome, witness, d not in want)


@pytest.mark.parametrize(
    "g,nodes",
    [
        (make_cycle(7), 1366),
        # C7 with its vertices named as the search benchmark's seed 0 names them
        (Graph(7, [(0, 1), (0, 3), (1, 2), (2, 4), (3, 5), (4, 6), (5, 6)]), 960),
    ],
    ids=["C7", "C7-relabelled"],
)
def test_cycle7_p5_count_all_is_pinned(g, nodes):
    # 3 487 nodes for both under residue classes, which cut a factor 2! * 2!
    res = search_labeling(SearchSpec(g, 5, mode="count-all"))
    assert (res.outcome, res.count, res.nodes, res.complete) == ("found", 2408, nodes, True)


Q4 = Graph(16, [(u, u ^ (1 << i)) for u in range(16) for i in range(4) if u < u ^ (1 << i)])


def test_find_first_below_p_rents_before_it_buys_the_chain(monkeypatch):
    # Q4 at p = 13 < n: no labeling reaches [30, 32]. Under residue classes
    # and twin runs alone the run ended exhausted at the 2 M default budget
    # (5 065 417 nodes to finish); it buys the chain after CHAIN_AFTER nodes
    # and starts over.
    res = search_labeling(SearchSpec(Q4, 13, DiffWindow(30, 32)))
    assert (res.outcome, res.nodes) == ("none", 164_826)

    def no_chain(self):
        raise AssertionError("a run shorter than CHAIN_AFTER nodes needs no chain")

    monkeypatch.setattr(search._Engine, "_buy_chain", no_chain)
    g = make_cycle(7)
    assert search_labeling(SearchSpec(g, 5)).outcome == "found"
    assert find_base_labelings("join", make_cycle(6), make_cycle(7), 3).outcome == "none"
    with pytest.raises(AssertionError, match="needs no chain"):  # count-all buys it at once
        search_labeling(SearchSpec(g, 5, mode="count-all"))


def test_no_chain_cuts_more_so_nothing_is_rented():
    # star:9 at p = 5: T = 2!^4 * 8! = 645 120 >= 9!, so the engine keeps
    # residue classes and twin runs from the start. The map took 301 nodes
    # while the engine rented CHAIN_AFTER nodes, kept no chain, and started
    # the probe at the rent over under the same rule.
    engine = search._Engine(make_star(9), 5)
    assert (engine.cut, engine.chain_in) == (645_120, None)
    got, complete, nodes = achievable_differences(make_star(9), 5)
    assert (got, complete, nodes) == (
        {-2: (1, 2, 3, 4, 5, 6, 7, 8, 9), 0: (5, 1, 2, 3, 4, 6, 7, 8, 9)}, True, 293
    )


def test_count_all_rents_nothing_and_probes_buy():
    # Count-all rents 0 nodes: its engine builds no chain, and _Probes.run
    # buys it before the first run. C7 at p = 5 keeps it (|Aut| 14 > T 4).
    g = make_cycle(7)
    engine = search._Engine(g, 5, count_all=True)
    assert (engine.chain_in, engine.q, engine.leaf_weight) == (0, 5, 4)
    probes = search._Probes(5, None, count_all=True)
    assert probes.run(g, -1, 1)[0] == 2408
    engine = probes.engines[id(g)]
    assert (engine.chain_in, engine.q, engine.leaf_weight, probes.nodes) == (None, 8, 14, 1366)


def _circulant(n: int, jumps) -> tuple[list[int], list[int]]:
    """Neighbourhood masks and degrees of the circulant C_n(jumps); every
    vertex has the same degree, so index order is the search order."""
    pn = [0] * n
    for u in range(n):
        for j in jumps:
            pn[u] |= 1 << (u + j) % n
            pn[(u + j) % n] |= 1 << u
    return pn, [m.bit_count() for m in pn]


def _count_map_extension(monkeypatch) -> list[int]:
    """Counts _map_extension's calls, its recursive ones included, in the
    returned list's one entry."""
    calls = [0]
    extend = symmetry._map_extension

    def counted(*args):
        calls[0] += 1
        return extend(*args)

    monkeypatch.setattr(symmetry, "_map_extension", counted)
    return calls


def test_chain_set_up_is_capped(monkeypatch):
    # C_32(1..7) needs 121 083 _map_extension calls, about 1 s, for its
    # chain. The cap lets CHAIN_CALL_CAP calls run, and the next one stops
    # the set-up. No test or benchmark graph needs more than 100 calls.
    calls = _count_map_extension(monkeypatch)
    assert _chain(*_circulant(32, range(1, 8))) is None
    assert calls[0] == symmetry.CHAIN_CALL_CAP + 1
    calls[0] = 0
    chain = _chain(*_circulant(12, (1, 2)))  # |Aut| 24, the dihedral group
    assert (math.prod(chain[1]), calls[0]) == (24, 32)


def test_find_first_above_order_12():
    # C_32(1..7) at p=37 >= n: its chain is capped, so after the 256 rented
    # nodes the plain search runs again from the start, in 293 689 nodes
    # (0.22 s on a 2-vCPU VM)
    g = Graph(32, [(u, (u + j) % 32) for u in range(32) for j in range(1, 8)])
    res = search_labeling(SearchSpec(g, 37))
    assert (res.outcome, res.nodes) == ("found", 293_945)
    e0, e1 = brute_tally(g.edges, res.labeling, 37)
    assert abs(e0 - e1) <= 1


def test_capped_chain_falls_back_to_an_exact_search(monkeypatch):
    monkeypatch.setattr(symmetry, "CHAIN_CALL_CAP", 0)
    g = make_cycle(7)
    # p >= n: the plain search, with no order constraint and no ceiling
    # (count-all, which buys before its first run; find-first buys later)
    engine = _engine(g, 11, True)
    assert (engine.leaf_weight, engine.q, engine.chain_in) == (1, 8, None)
    assert [step[2:] for step in engine.steps] == [(-1, 8)] * 7
    # p < n: residue classes, as without the chain
    assert (_engine(g, 5, True).q, search._Engine(g, 5).q) == (5, 5)
    for p in (5, 11):
        _check_against_oracles(g, p)
    assert search_labeling(SearchSpec(g, 5, mode="count-all")).nodes == 3487


# A cubic graph of order 12 whose stabilizer chain (|Aut| = 4) takes 726
# _map_extension calls.
CUBIC12 = Graph(12, [
    (0, 3), (0, 8), (0, 11), (1, 4), (1, 5), (1, 6), (2, 7), (2, 10), (2, 11),
    (3, 6), (3, 7), (4, 9), (4, 11), (5, 7), (5, 9), (6, 10), (8, 9), (8, 10),
])


def test_chain_set_up_stops_at_the_deadline(monkeypatch):
    calls = _count_map_extension(monkeypatch)
    # count-all buys the chain before its first run (find-first finds a
    # cordial witness in 21 nodes, without one); its run needs more than 2 M
    # nodes
    spec = SearchSpec(CUBIC12, 13, mode="count-all", budget=Budget(max_nodes=1000))
    first = search_labeling(spec)
    assert (first.outcome, first.nodes, calls[0]) == ("exhausted", 1000, 726)
    # a clock that passes the deadline after 100 calls
    clock = SimpleNamespace(monotonic=lambda: 2.0 if calls[0] >= 100 else 0.0)
    monkeypatch.setattr(search, "time", clock)
    monkeypatch.setattr(symmetry, "time", clock)
    calls[0] = 0
    res = search_labeling(SearchSpec(CUBIC12, 13, mode="count-all", budget=Budget(1000, 1.0)))
    assert (res.outcome, res.nodes) == ("exhausted", 0)
    assert 100 <= calls[0] <= 100 + symmetry.CHAIN_POLL
    # with only a node budget the clock is not read, and the run is unchanged
    calls[0] = 0
    assert search_labeling(spec) == first
    assert calls[0] == 726


def _regular(n: int, k: int, seed: int) -> Graph:
    """A k-regular graph of even order n: k perfect matchings with no edge in
    common, each cut from a shuffle that reads only random.Random(seed)'s
    random(), whose sequence Python keeps the same from version to version."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < n * k // 2:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(rng.random() * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        matching = {(min(u, v), max(u, v)) for u, v in zip(perm[::2], perm[1::2])}
        if not matching & edges:
            edges |= matching
    return Graph(n, sorted(edges))


@pytest.mark.parametrize("chain_after", [0, 1, 7])
def test_chain_bought_at_restart_matches_oracles(monkeypatch, chain_after):
    # Find-first buys the chain after CHAIN_AFTER nodes and starts its run
    # over, which few corpus runs reach at the default of 256. At every p
    # the chain is kept only where it cuts more, |Aut(G)| > T.
    monkeypatch.setattr(search, "CHAIN_AFTER", chain_after)
    for gs in CONNECTED.values():
        for g in gs:
            for p in (3, 5, 7, 11):
                _check_against_oracles(g, p)


def test_short_find_first_builds_no_chain(monkeypatch):
    # A rigid 5-regular graph of order 64. Its chain completes, in 15-27 ms
    # on a 2-vCPU VM, where the search needs 70 nodes, under CHAIN_AFTER.
    g = _regular(64, 5, 5)
    engine = search._Engine(g, 67)
    above, sizes = _chain(engine.pn, engine.dp)
    assert sizes == [1] * 64

    def no_chain(*args):
        raise AssertionError("a run shorter than CHAIN_AFTER nodes needs no chain")

    monkeypatch.setattr(symmetry, "_stabilizer_chain", no_chain)
    res = search_labeling(SearchSpec(g, 67))
    assert (res.outcome, res.nodes) == ("found", 70)
    e0, e1 = brute_tally(g.edges, res.labeling, 67)
    assert abs(e0 - e1) <= 1


def test_probes_buy_the_chain_once(monkeypatch):
    # The probes share one engine, so the rent runs on from probe to probe
    # and the chain, once bought, serves every later probe. The Petersen map
    # takes 3 933 nodes with the chain from the start, 113 248 with no
    # chain, and 4 030 when the probe that reaches the rent starts over
    # under the chain.
    built = []
    chain = symmetry._stabilizer_chain

    def counted(*args):
        built.append(args)
        return chain(*args)

    monkeypatch.setattr(symmetry, "_stabilizer_chain", counted)
    got, complete, nodes = achievable_differences(PETERSEN, 11)
    assert (complete, nodes, len(built)) == (True, 4030, 1)
    monkeypatch.setattr(search, "CHAIN_AFTER", 0)
    assert achievable_differences(PETERSEN, 11) == (got, True, 3933)


@pytest.mark.parametrize(
    "g,p,window,outcome",
    [(Q3, 11, DiffWindow.exact(-12), "none"), (CUBIC12, 13, DiffWindow.exact(-18), "found")],
    ids=["Q3-p11-none", "cubic12-p13-found"],
)
def test_budget_sweep_through_the_purchase(g, p, window, outcome):
    # both runs go past CHAIN_AFTER nodes, so budgets on each side of it
    full = search_labeling(SearchSpec(g, p, window))
    assert full.outcome == outcome and full.nodes > search.CHAIN_AFTER
    for max_nodes in range(1, full.nodes):
        res = search_labeling(SearchSpec(g, p, window, Budget(max_nodes=max_nodes)))
        assert (res.outcome, res.nodes) == ("exhausted", max_nodes)
    assert search_labeling(SearchSpec(g, p, window, Budget(max_nodes=full.nodes))) == full


def test_deadline_or_cap_during_the_purchase(monkeypatch):
    # CUBIC12's find-first run takes 21 nodes, so the chain (726
    # _map_extension calls) is bought at node 10, and the run starts over
    # under it: 10 + 21 nodes
    monkeypatch.setattr(search, "CHAIN_AFTER", 10)
    calls = _count_map_extension(monkeypatch)
    full = search_labeling(SearchSpec(CUBIC12, 13))
    assert (full.outcome, full.nodes, calls[0]) == ("found", 31, 726)
    # a clock that passes the deadline after 100 calls ends the run at the purchase
    clock = SimpleNamespace(monotonic=lambda: 2.0 if calls[0] >= 100 else 0.0)
    monkeypatch.setattr(search, "time", clock)
    monkeypatch.setattr(symmetry, "time", clock)
    calls[0] = 0
    res = search_labeling(SearchSpec(CUBIC12, 13, budget=Budget(max_seconds=1.0)))
    assert (res.outcome, res.nodes) == ("exhausted", 10)
    assert 100 <= calls[0] <= 100 + symmetry.CHAIN_POLL
    # a capped chain (the call past the cap raises) leaves the twin runs in
    # place, and the run starts over under them
    monkeypatch.setattr(symmetry, "CHAIN_CALL_CAP", 50)
    calls[0] = 0
    res = search_labeling(SearchSpec(CUBIC12, 13))
    assert (res.outcome, res.labeling, calls[0]) == ("found", full.labeling, 51)


def test_cycle10_p11_count_all_fits_the_default_budget():
    # 8 244 500 nodes, four times the default budget, before the chain, and
    # 820 846 before the label ceilings
    res = search_labeling(SearchSpec(make_cycle(10), 11, mode="count-all"))
    assert (res.outcome, res.count, res.labeling, res.nodes) == (
        "found", 845920, (1, 2, 3, 4, 5, 6, 7, 9, 10, 8), 639729
    )
    assert res.complete


def test_class_orders_match_brute_force():
    # prod m_r! over the classes mod q of the labels 1..n, one class per label at q >= n
    for n in range(1, 65):
        for q in (3, 5, 7, 11, 13, n, n + 1):
            sizes = Counter(x % q for x in range(1, n + 1))
            assert symmetry._class_orders(n, q) == math.prod(map(math.factorial, sizes.values()))
        assert symmetry._class_orders(n, n) == symmetry._class_orders(n, n + 1) == 1


@pytest.mark.parametrize(
    "n,p", [(n, p) for n in (9, 13, 20, 33, 64) for p in (3, 5, 7, 11) if p < n]
)
def test_star_count_all_has_a_closed_form(n, p):
    # The leaves of a star are one twin run and d depends on the center's
    # label c alone, so (n - 1)! labelings have each c. Past order 8 this
    # checks a leaf's weight at p < n: prod m_r! times the run's multinomial,
    # with runs of up to 63 positions and classes of up to 22 labels.
    residues = {x * x % p for x in range(1, p)}
    d = [sum(1 if (c + x) % p in residues else -1 for x in range(1, n + 1) if x != c)
         for c in range(1, n + 1)]
    for window in (DiffWindow.cordial(), DiffWindow(-5, 5), DiffWindow(n - 7, n - 1)):
        res = search_labeling(SearchSpec(make_star(n), p, window, mode="count-all"))
        want = sum(window.lo <= x <= window.hi for x in d) * math.factorial(n - 1)
        assert res.count == want and res.complete
        assert res.outcome == ("found" if want else "none")


def _sparse(n: int, seed: int) -> Graph:
    """The first connected draw of order n with edge probability 0.3 from
    random.Random(seed)'s random(), whose sequence Python keeps the same
    from version to version."""
    rng = random.Random(seed)
    while True:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
        if is_connected(g):
            return g


# Graphs of order 8-12 and the primes at which the engine's count-all runs
# at both windows finish in about 0.1 s or less (the longest, cordial
# P5 x P2 at p = 5, takes 276 536 nodes and 0.1 s on a 2-vCPU VM).
RESIDUE_DP_CASES = [
    (make_cycle(8), (3, 5, 7)), (make_cycle(9), (3, 5)), (make_cycle(10), (3, 5)),
    (make_cycle(11), (3,)), (make_cycle(12), (3,)),
    (make_path(8), (5, 7)), (make_path(9), (3, 5)), (make_path(10), (3,)), (make_path(12), (3,)),
    (cartesian(make_path(5), make_path(2)), (3, 5)), (cartesian(make_path(6), make_path(2)), (3,)),
    (_sparse(8, 1), (3, 5, 7)), (_sparse(9, 2), (3, 5)), (_sparse(10, 3), (3,)),
    (_sparse(11, 4), (3,)),
]


@pytest.mark.parametrize(
    "g,primes", RESIDUE_DP_CASES,
    ids=["C8", "C9", "C10", "C11", "C12", "P8", "P9", "P10", "P12", "P5xP2", "P6xP2",
         "G8", "G9", "G10", "G11"],
)
def test_counts_above_brute_force_orders_match_the_residue_dp(g, primes):
    # Brute force stops being practical near order 9. The residue DP counts
    # labelings without listing them, so count-all counts, their leaf
    # weights (prod m_r!, twin-run multinomials, |Aut| under the chain) and
    # prove-none verdicts are checked here against a count the engine did
    # not make. The high window holds no labeling for P5 x P2 and G8-G11 at
    # p = 3 and for G9 at p = 5, so it checks "none" certificates too.
    for p in primes:
        counts = residue_dp_counts(g.edges, g.order, p)
        for lo, hi in ((-1, 1), (g.size - 4, g.size - 2)):
            want = sum(c for d, c in counts.items() if lo <= d <= hi)
            res = search_labeling(SearchSpec(g, p, DiffWindow(lo, hi), mode="count-all"))
            assert (res.count, res.outcome) == (want, "found" if want else "none")
            res = search_labeling(SearchSpec(g, p, DiffWindow(lo, hi), mode="prove-none"))
            assert res.outcome == ("found" if want else "none")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 9973])
@pytest.mark.parametrize("n", [1, 4, 7, 12])
def test_sum_label_matches_edge_label(n, p):
    # the change in d = e1 - e0 that an edge with endpoint sum s adds
    engine = search._Engine(make_path(n), p)
    ctx = LegendreContext(p)
    assert engine.sum_label == [2 * edge_label(s, ctx) - 1 for s in range(2 * n + 1)]


# K5 at p=3 is a single run, whose ceilings leave one label per position
TWIN_RICH = [_bipartite(3, 3), K222, make_star(7), make_complete(6), THREE_RUNS, make_complete(5)]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("g", TWIN_RICH, ids=["K33", "K222", "star7", "K6", "three_runs", "K5"])
def test_twin_runs_match_oracles(g, p):
    _check_against_oracles(g, p)


@pytest.mark.parametrize(
    "g,p",
    [
        (_bipartite(3, 3), 7),
        (_bipartite(3, 3), 11),
        (K222, 7),
        (K222, 11),
        (make_star(7), 11),
        (make_complete(6), 7),
        (make_complete(6), 11),
    ],
    ids=["K33-p7", "K33-p11", "K222-p7", "K222-p11", "star7-p11", "K6-p7", "K6-p11"],
)
def test_capped_chain_at_p_at_least_n_keeps_twin_runs(monkeypatch, g, p):
    # With no chain kept, twin runs cut at every p. The chains of K6 and
    # star:7 are built from twin swaps alone, so the cap leaves them in place.
    monkeypatch.setattr(symmetry, "CHAIN_CALL_CAP", 0)
    _check_against_oracles(g, p)
    if g == _bipartite(3, 3) and p == 7:  # a run of 3 in each part
        res = search_labeling(SearchSpec(g, p, mode="count-all"))
        assert (res.count, res.nodes) == (216, 134)  # 1 956 in the plain search


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "g,window",
    [
        (make_cycle(6), DiffWindow.exact(1)),  # size 6: d is even
        (make_cycle(5), DiffWindow.exact(0)),  # size 5: d is odd
        (make_path(5), DiffWindow(1, 0)),  # inverted
        (make_complete(12), DiffWindow(2, -2)),  # inverted
    ],
)
def test_parity_empty_window_is_none_at_0_nodes(monkeypatch, g, window, mode):
    def no_engine(*args):
        raise AssertionError("an empty window needs no engine")

    monkeypatch.setattr(search, "_Engine", no_engine)
    # also with no time left: the fake clock is past the deadline at its next read
    monkeypatch.setattr(search, "time", _Clock())
    for budget in (Budget(1), Budget(1, 0.5)):
        res = search_labeling(SearchSpec(g, 5, objective=window, mode=mode, budget=budget))
        assert (res.outcome, res.nodes, res.labeling, res.complete) == ("none", 0, None, True)
        assert res.count == (0 if mode == "count-all" else None)


def test_achievable_differences_matches_oracle():
    order6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    for g, p in [(make_path(4), 3), (make_cycle(5), 5), (order6, 3)]:
        got, complete, _ = achievable_differences(g, p)
        assert complete
        want = brute_diff_witnesses(g.edges, g.order, p)
        assert set(got) == set(want)
        for d, assign in got.items():
            assert assign in want[d]
            e0, e1 = brute_tally(g.edges, assign, p)
            assert e1 - e0 == d


# Each (mode, max_nodes) point below stops the run at a different node:
# at inner positions and at leaves, which their parent position settles.
BUDGET_SWEEP = [
    ("count-all", make_path(7), 3),  # twin runs, p < n
    ("count-all", make_cycle(7), 11),  # chain orbits, p >= n
    ("prove-none", make_complete(5), 7),
]


@pytest.mark.parametrize("mode,g,p", BUDGET_SWEEP, ids=["path7-p3", "cycle7-p11", "K5-p7"])
def test_budget_sweep_stops_at_every_node(mode, g, p):
    full = search_labeling(SearchSpec(g, p, mode=mode))
    assert full.outcome != "exhausted"
    for max_nodes in range(1, full.nodes):
        res = search_labeling(SearchSpec(g, p, mode=mode, budget=Budget(max_nodes=max_nodes)))
        assert (res.outcome, res.nodes, res.complete) == ("exhausted", max_nodes, False)
    for max_nodes in (full.nodes, full.nodes + 1):
        assert search_labeling(SearchSpec(g, p, mode=mode, budget=Budget(max_nodes=max_nodes))) == full


# The complete maps as the leaf scan that preceded the per-difference probes
# recorded them, in 9 943 and 65 201 nodes. The C8 map took 277 nodes while
# find-first engines built the chain with the engine; bought after
# CHAIN_AFTER nodes, the probe that reaches them starts over under it.
ACHIEVABLE_PINNED = [
    (make_cycle(8), 11, 321, {
        -8: (1, 5, 2, 8, 3, 4, 6, 7),
        -6: (1, 2, 4, 3, 8, 5, 6, 7),
        -4: (1, 2, 3, 8, 5, 6, 4, 7),
        -2: (1, 2, 3, 4, 6, 5, 8, 7),
        0: (1, 2, 3, 4, 5, 8, 6, 7),
        2: (1, 2, 3, 4, 5, 6, 7, 8),
        4: (1, 2, 3, 4, 5, 7, 6, 8),
        6: (1, 2, 3, 6, 4, 5, 7, 8),
        8: (1, 2, 3, 6, 8, 7, 5, 4),
    }),
    (make_path(9), 5, 152, {
        -8: (9, 1, 2, 3, 4, 6, 7, 5, 8),
        -6: (6, 1, 2, 3, 4, 5, 7, 8, 9),
        -4: (9, 1, 2, 3, 4, 5, 6, 7, 8),
        -2: (7, 1, 2, 3, 4, 5, 6, 8, 9),
        0: (8, 1, 2, 3, 4, 5, 6, 7, 9),
        2: (8, 1, 2, 3, 4, 7, 9, 5, 6),
        4: (8, 1, 2, 3, 6, 5, 4, 7, 9),
        6: (3, 1, 2, 4, 7, 9, 5, 6, 8),
        8: (8, 1, 3, 6, 5, 4, 2, 7, 9),
    }),
]


@pytest.mark.parametrize("g,p,nodes,want", ACHIEVABLE_PINNED, ids=["cycle8-p11", "path9-p5"])
def test_achievable_differences_maps_are_pinned(g, p, nodes, want):
    assert achievable_differences(g, p) == (want, True, nodes)


def test_achievable_differences_budget_sweep():
    g = make_cycle(6)
    full, complete, nodes = achievable_differences(g, 7)
    assert complete
    for max_nodes in range(1, nodes):
        partial, complete, used = achievable_differences(g, 7, Budget(max_nodes=max_nodes))
        assert (complete, used) == (False, max_nodes)
        assert all(full[d] == w for d, w in partial.items())
    for max_nodes in (nodes, nodes + 1):
        assert achievable_differences(g, 7, Budget(max_nodes=max_nodes)) == (full, True, nodes)


# Orders 1 and 2, as recorded before leaves were settled by their parent
# position: (window, outcome, nodes, witness, count in count-all). Graph(1)
# has no edge, so d = 0; path:2's one edge has label sum 3, a non-residue
# mod 3 and mod 5, so d = -1. exact(1) has the wrong parity for Graph(1):
# "none" at 0 nodes.
SMALL_ORDERS = [
    (Graph(1), DiffWindow.cordial(), "found", 1, (1,), 1),
    (Graph(1), DiffWindow.exact(1), "none", 0, None, 0),
    (Graph(1), DiffWindow.around(2), "none", 1, None, 0),
    (make_path(2), DiffWindow.cordial(), "found", 2, (1, 2), 2),
    (make_path(2), DiffWindow.exact(1), "none", 2, None, 0),
    (make_path(2), DiffWindow.around(2), "none", 2, None, 0),
]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "g,window,outcome,nodes,witness,count",
    SMALL_ORDERS,
    ids=["K1-cordial", "K1-exact1", "K1-around2", "P2-cordial", "P2-exact1", "P2-around2"],
)
def test_orders_1_and_2_are_pinned(g, window, outcome, nodes, witness, count, mode, p):
    res = search_labeling(SearchSpec(g, p, objective=window, mode=mode))
    count_all = mode == "count-all"
    assert res == SearchResult(outcome, nodes, witness, count if count_all else None)
    assert res.complete == (count_all or outcome == "none")


def test_search_report_json():
    res = search_labeling(SearchSpec(make_cycle(3), 3, mode="count-all"))
    obj = res.to_json()
    assert obj["outcome"] == "found" and obj["count"] == 6 and "nodes" in obj


# ---------------------------------------------------------------------------
# find_base_labelings
# ---------------------------------------------------------------------------

def test_fbl_cartesian_c5_c4():
    out = find_base_labelings("cartesian", make_cycle(5), make_cycle(4), 5)
    assert out.outcome == "found"
    tally = induced_tally(Labeling(make_cycle(5), out.recipe.lab_g1), LegendreContext(5))
    assert tally.difference == 1
    g, lab, pred = run_recipe(out.recipe)
    assert (pred.e0, pred.e1) == (20, 20)


def test_fbl_tensor_c3_exhausts():
    out = find_base_labelings("tensor", make_cycle(3), make_cycle(4), 3)
    assert out.outcome == "none"


def test_fbl_lexicographic_p3_m1_is_infeasible_for_all_g2():
    # every graph on 3 labeled vertices, all 6 labelings each
    pool = list(combinations(range(3), 2))
    for r in range(len(pool) + 1):
        for chosen in combinations(pool, r):
            out = find_base_labelings(
                "lexicographic", make_cycle(3), Graph(3, chosen), 3
            )
            assert out.outcome == "none", chosen


def test_fbl_join_examples():
    out = find_base_labelings("join", make_cycle(3), make_complete(1), 3)
    assert out.outcome == "none"  # rho-eta of C3 is -1 for all labelings
    out = find_base_labelings("join", make_path(3), make_complete(1), 3)
    assert out.outcome == "found"
    g, lab, pred = run_recipe(out.recipe)
    assert (pred.e0, pred.e1) == (3, 2)


def test_fbl_corona_found_and_none():
    out = find_base_labelings("corona", make_path(2), Graph(3, [(0, 1)]), 3)
    assert out.outcome == "found"
    g, lab, pred = run_recipe(out.recipe)
    assert abs(pred.e0 - pred.e1) <= 1
    out = find_base_labelings("corona", make_path(2), make_cycle(3), 3)
    assert out.outcome == "none"


def test_fbl_structural_precondition_fails_before_search():
    with pytest.raises(HypothesisViolation):
        find_base_labelings("join", make_path(4), make_complete(1), 3)
    with pytest.raises(ConnectivityViolation):
        find_base_labelings("tensor", make_path(4), make_cycle(4), 3)
    with pytest.raises(ValueError, match="^corona-path carries no balance hypothesis$"):
        find_base_labelings("corona-path", make_path(3), make_path(3), 3)


H7 = Graph(7, [(0, 6), (1, 5), (2, 4), (1, 6), (2, 5), (3, 6), (4, 5)])


# One found case per balance theorem: outcome and witnesses recorded before
# the theorem table replaced the per-theorem branches, nodes_before since
# twin runs (the corona and lexicographic cases needed 8, 35 and 205 before).
# FBL_NODES holds the cases whose nodes fell with the label ceilings (the
# lexicographic case) or with the per-difference probes. The join case
# probes g2 and the second corona case g1 (the smaller factor); before the
# probes, that corona case needed 30 nodes.
FBL_NODES = {("corona", 7): 6, ("corona", 32): 26, ("lexicographic", 180): 172}


@pytest.mark.parametrize(
    "theorem,g1,g2,p,nodes_before,lab_g1,lab_g2",
    [
        ("join", make_cycle(6), make_complete(1), 3, 19, (1, 2, 5, 3, 4, 6), (1,)),
        ("corona", make_path(2), Graph(3, [(0, 1)]), 3, 7, (1, 2), (1, 3, 2)),
        ("corona", make_path(3), make_path(6), 3, 32, (1, 2, 3), (6, 1, 3, 4, 2, 5)),
        ("lexicographic", make_cycle(3), H7, 7, 180, None, (2, 1, 5, 4, 6, 3, 7)),
        ("cartesian", make_cycle(5), make_cycle(4), 5, 10, (1, 2, 4, 5, 3), None),
        ("tensor", make_path(5), make_cycle(3), 5, 11, (5, 1, 2, 4, 3), None),
        ("strong", make_cycle(9), make_path(4), 3, 21, (1, 2, 3, 4, 5, 8, 6, 7, 9), None),
    ],
)
def test_fbl_found_is_pinned(theorem, g1, g2, p, nodes_before, lab_g1, lab_g2):
    out = find_base_labelings(theorem, g1, g2, p)
    nodes = FBL_NODES.get((theorem, nodes_before), nodes_before)
    assert (out.outcome, out.nodes) == ("found", nodes)
    assert (out.recipe.lab_g1, out.recipe.lab_g2) == (lab_g1, lab_g2)
    graph, lab, pred = run_recipe(out.recipe)
    assert brute_tally(graph.edges, lab.assign, p) == (pred.e0, pred.e1)


# Join and corona cases whose nodes the per-difference probes changed:
# (theorem, g1, g2, p, outcome, nodes, recipe's base labelings or None).
# The C10 corona recipe is the one the leaf scan found after 326 027 nodes;
# the P11 corona ended "exhausted" at the 2 M default budget before. K5 is
# dense and reaches few differences, so its probes cost more than its leaf
# scan did. The two coronas needed 50 and 46 nodes while a scan probe still
# ran when the complementary window held no difference of the other
# factor's parity.
PROBE_CASES = [
    ("join", make_cycle(6), make_cycle(7), 3, "none", 26, None),  # 285 before
    ("join", make_complete(5), make_cycle(10), 5, "none", 23, None),  # 10 before
    (
        "corona", make_cycle(10), make_cycle(10), 5, "found", 32,
        ((1, 2, 3, 4, 5, 6, 7, 9, 10, 8), (1, 2, 3, 4, 5, 6, 8, 7, 9, 10)),
    ),
    ("corona", make_path(11), make_cycle(11), 11, "found", 27, None),
]


@pytest.mark.parametrize(
    "theorem,g1,g2,p,outcome,nodes,labs",
    PROBE_CASES,
    ids=["join-C6-C7-p3", "join-K5-C10-p5", "corona-C10-C10-p5", "corona-P11-C11-p11"],
)
def test_fbl_probe_nodes_are_pinned(theorem, g1, g2, p, outcome, nodes, labs):
    out = find_base_labelings(theorem, g1, g2, p)
    assert (out.outcome, out.nodes) == (outcome, nodes)
    if outcome == "found":
        if labs is not None:
            assert (out.recipe.lab_g1, out.recipe.lab_g2) == labs
        graph, lab, pred = run_recipe(out.recipe)
        assert brute_tally(graph.edges, lab.assign, p) == (pred.e0, pred.e1)


@pytest.mark.parametrize(
    "theorem,g1,g2,p",
    [
        ("tensor", make_path(10), make_cycle(3), 5),  # 164 874 nodes before parity
        ("strong", make_path(9), make_path(3), 3),  # 2 027 nodes before parity
        ("tensor", make_cycle(11), make_cycle(3), 11),  # exhausted at 2 M before
    ],
)
def test_fbl_parity_empty_window(theorem, g1, g2, p):
    out = find_base_labelings(theorem, g1, g2, p)
    assert (out.outcome, out.nodes) == ("none", 0)


def test_fbl_builds_each_engine_once_and_lists_no_leaves(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the join probes its factors, it does not list their leaves")

    built = []
    engine = search._Engine

    def counted(graph, *args):
        built.append(graph.order)
        return engine(graph, *args)

    monkeypatch.setattr(search, "achievable_differences", no_scan)
    monkeypatch.setattr(search, "_Engine", counted)
    out = find_base_labelings("join", make_cycle(7), make_cycle(9), 7)
    # 3 331 before the probes, 1 947 before C9 at p < n bought the chain
    assert (out.outcome, out.nodes) == ("found", 1025)
    assert sorted(built) == [7, 9]


class _Clock:
    """Stands in for the time module: monotonic() moves 1 s on at every call."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


def test_probes_share_one_deadline(monkeypatch):
    # The deadline is set at t=1 to 2.5. The first probe polls the clock
    # once, at its first node (t=2), and runs on; the second polls at its
    # first node (t=3 > 2.5) and ends there, at 0 nodes.
    g = make_cycle(10)
    first = search_labeling(SearchSpec(g, 5, DiffWindow.exact(-10)))
    monkeypatch.setattr(search, "time", _Clock())
    got = achievable_differences(g, 5, Budget(max_seconds=1.5))
    assert got == ({-10: first.labeling}, False, first.nodes)
    monkeypatch.setattr(search, "time", _Clock())
    out = find_base_labelings("join", make_cycle(7), make_cycle(9), 7, Budget(max_seconds=1.5))
    assert (out.outcome, out.recipe) == ("exhausted", None)


def test_time_budget_covers_engine_set_up(monkeypatch):
    # The deadline is set at t=1 to 6 and the run starts at t=2; set-up then
    # moves the clock to t=12, so the first node's poll (t=13) ends the run.
    clock = _Clock()
    engine = search._Engine

    def slow(*args):
        clock.now += 10.0
        return engine(*args)

    monkeypatch.setattr(search, "time", clock)
    monkeypatch.setattr(search, "_Engine", slow)
    res = search_labeling(SearchSpec(make_cycle(5), 5, budget=Budget(max_seconds=5)))
    assert (res.outcome, res.nodes, res.labeling, res.complete) == ("exhausted", 0, None, False)


def test_fbl_budget_exhaustion():
    out = find_base_labelings(
        "cartesian", make_cycle(5), make_cycle(4), 5, budget=Budget(max_nodes=3)
    )
    assert out.outcome == "exhausted"


def test_largest_prime_matches_oracles():
    # the engine reads 2n + 1 sums, so p = 9973 costs no more set-up than p = 7
    g = make_cycle(6)
    _check_against_oracles(g, 9973)
    res = search_labeling(SearchSpec(g, 9973))
    assert (res.outcome, res.labeling, res.nodes) == ("found", (1, 2, 3, 5, 4, 6), 11)
    assert brute_tally(g.edges, res.labeling, 9973) == (3, 3)
    res = search_labeling(SearchSpec(g, 9973, mode="count-all"))
    assert (res.count, res.nodes) == (192, 216)  # 346 before the label ceilings


def test_invalid_primes_are_refused():
    for p, msg in (
        (9, "p must be an odd prime, got 9"),
        (4, "p must be an odd prime, got 4"),
        (5.0, "p must be an odd prime, got 5.0"),
        (10007, "p exceeds the supported bound"),
    ):
        # refused when the spec is built, also for a window no d fits
        for window in (DiffWindow.cordial(), DiffWindow.exact(1)):
            with pytest.raises(ValueError, match=msg):
                SearchSpec(make_cycle(6), p, window)
        with pytest.raises(ValueError, match=msg):
            achievable_differences(make_cycle(6), p)


def test_each_entry_point_checks_the_prime_once(monkeypatch):
    calls = []
    for module in (search, constructors):
        check = module.check_prime
        monkeypatch.setattr(module, "check_prime", lambda p, check=check: calls.append(p) or check(p))
    runs = [
        lambda: search_labeling(SearchSpec(make_cycle(6), 7)),
        lambda: search_labeling(SearchSpec(make_cycle(6), 7, mode="count-all")),
        lambda: achievable_differences(make_cycle(6), 5),
        lambda: find_base_labelings("join", make_path(3), make_complete(1), 3),
        lambda: find_base_labelings("cartesian", make_cycle(5), make_cycle(4), 5),
    ]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 1


def test_find_base_checks_the_ceiling_only_for_a_probed_factor():
    # C3 has d = -1 under every labeling at p=3. Against P65 (even d) the
    # window [64, 66] needs d1 in {1, 3}: both probes of C3 fail, so P65 is
    # never probed and "none" is certified. Against C65 (odd d) d1 = -1 fits,
    # so C65 is probed and refused.
    out = find_base_labelings("join", make_cycle(3), make_path(65), 3)
    assert (out.outcome, out.nodes) == ("none", 5)
    with pytest.raises(ValueError, match="graph order 65 exceeds the search ceiling 64"):
        find_base_labelings("join", make_cycle(3), make_cycle(65), 3)


def test_window_bounds_must_be_ints():
    # narrowed to odd d, [0.5, 1.5] would be [2.0, 1.0]: a false "none" for d = 1
    for lo, hi in ((0.5, 1.5), (1.0, 1), (0, True)):
        with pytest.raises(TypeError, match="window bound must be an integer"):
            DiffWindow(lo, hi)


def test_budget_bounds_are_checked():
    for nodes in (0, -1):
        with pytest.raises(ValueError, match="node budget must be positive"):
            Budget(max_nodes=nodes)
    for nodes in (2.5, 1e6, True):
        with pytest.raises(TypeError, match="node budget must be an integer"):
            Budget(max_nodes=nodes)
    for seconds in (0, -1.0, math.nan):
        with pytest.raises(ValueError, match="time budget must be positive"):
            Budget(max_seconds=seconds)
    for seconds in (True, "5"):  # True is no number of seconds, as it is no node budget
        with pytest.raises(TypeError, match="time budget must be an int or a float, got"):
            Budget(max_seconds=seconds)
    assert [Budget(max_seconds=s).max_seconds for s in (2, 0.5)] == [2, 0.5]


def test_search_inputs_of_the_wrong_type_are_refused():
    # refused where they are built, not when a search first reads them
    g = make_cycle(5)
    cases = [
        ({"graph": "x"}, "graph must be a Graph, got str"),
        ({"objective": (0, 1)}, "objective must be a DiffWindow, got tuple"),
        ({"budget": 100}, "budget must be a Budget or None, got int"),
    ]
    for fields, message in cases:
        kwargs = {"graph": g, "p": 5} | fields
        with pytest.raises(TypeError, match=f"^{message}$"):
            SearchSpec(**kwargs)
    assert SearchSpec(g, 5, budget=None).budget is None  # None: the default budget
    with pytest.raises(TypeError, match="^budget must be a Budget or None, got int$"):
        achievable_differences(g, 5, budget=100)
    with pytest.raises(TypeError, match="^budget must be a Budget or None, got int$"):
        find_base_labelings("join", make_path(3), make_complete(1), 3, budget=100)


def test_achievable_differences_refuses_a_graph_of_the_wrong_type():
    with pytest.raises(TypeError, match="^graph must be a Graph, got list$"):
        achievable_differences([(0, 1)], 5)


def test_find_base_labelings_refuses_factors_of_the_wrong_type():
    g = make_cycle(5)
    with pytest.raises(TypeError, match="^g2 must be a Graph, got str$"):
        find_base_labelings("join", g, "P4", 5)
    with pytest.raises(TypeError, match="^g1 must be a Graph, got NoneType$"):
        find_base_labelings("cartesian", None, g, 5)


def test_searches_leave_no_reference_cycles():
    g = make_cycle(6)
    runs = [
        lambda: search_labeling(SearchSpec(g, 7)),
        lambda: search_labeling(SearchSpec(g, 7, mode="count-all")),
        lambda: search_labeling(SearchSpec(g, 3, mode="prove-none")),
        lambda: search_labeling(SearchSpec(g, 7, budget=Budget(max_nodes=5))),
        lambda: achievable_differences(g, 5),
        lambda: find_base_labelings("join", make_path(3), make_complete(1), 3),
    ]
    for run in runs:  # warm any first-call caches
        run()
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            for run in runs:
                run()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Every connected graph of order 2..6, from tests/connected_graphs.txt
# (CONNECTED). A CI step runs _check_against_oracles and _check_aut_weight on
# those of order 7 too, outside tier-1.
# ---------------------------------------------------------------------------

def test_corpus_counts_every_connected_graph():
    # OEIS A001349
    assert {n: len(gs) for n, gs in CONNECTED.items()} == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    assert all(is_connected(g) for gs in CONNECTED.values() for g in gs)


@pytest.mark.parametrize("n", sorted(CONNECTED))
def test_corpus_against_oracles(n):
    # p = 7 >= n runs under the stabilizer chain where |Aut| exceeds the
    # twin runs' T; p = 3 and 5 run under residue classes and twin runs from
    # order 4 and 6 on
    for g in CONNECTED[n]:
        for p in (3, 5, 7):
            _check_against_oracles(g, p)


@pytest.mark.parametrize("theorem", ["join", "corona"])
def test_corpus_pairs_find_base_labelings(theorem):
    # The factor whose order must be a multiple of p is each corpus graph of
    # order p or 2p, the other each corpus graph of order 2..4.
    diffs: dict[tuple[Graph, int], set[int]] = {}

    def achievable(g: Graph, p: int) -> set[int]:
        if (g, p) not in diffs:
            diffs[g, p] = set(brute_diff_witnesses(g.edges, g.order, p))
        return diffs[g, p]

    outcomes = []
    for p, fixed in ((3, CONNECTED[3] + CONNECTED[6]), (5, CONNECTED[5])):
        for g_fixed in fixed:
            for g_free in CONNECTED[2] + CONNECTED[3] + CONNECTED[4]:
                g1, g2 = (g_fixed, g_free) if theorem == "join" else (g_free, g_fixed)
                form = constructors.balance_form(theorem, g1, g2, p)
                out = find_base_labelings(theorem, g1, g2, p)
                outcomes.append(out.outcome)
                if out.outcome == "found":
                    e0, e1 = brute_tally(g1.edges, out.recipe.lab_g1, p)
                    f0, f1 = brute_tally(g2.edges, out.recipe.lab_g2, p)
                    assert form.lo <= form.coef1 * (e1 - e0) + form.coef2 * (f1 - f0) <= form.hi
                else:
                    assert out.outcome == "none"
                    assert not any(
                        form.lo <= form.coef1 * d1 + form.coef2 * d2 <= form.hi
                        for d1 in achievable(g1, p)
                        for d2 in achievable(g2, p)
                    )
    assert {"found", "none"} <= set(outcomes)
