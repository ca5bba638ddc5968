"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All quantities are exact integers, so every comparison is equality with zero
tolerance; the only budgets are the per-criterion wall-clock limits. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they print.
"""

import random
import time
from contextlib import contextmanager
from itertools import permutations

from legcordial.constructors import (
    construct_cartesian,
    construct_corona,
    construct_corona_path,
    construct_join,
    construct_kp_tensor,
    construct_lexicographic,
    construct_strong,
    construct_tensor,
    run_recipe,
)
from legcordial.graph import (
    Graph,
    has_odd_cycle,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
)
from legcordial.labeling import Labeling, induced_tally
from legcordial.numtheory import (
    LegendreContext,
    euler_criterion,
    is_odd_prime,
    legendre_symbol,
    two_symbol_rule,
)
from legcordial.products import cartesian, corona, join, lexicographic, strong, tensor
from legcordial.search import (
    DiffWindow,
    SearchSpec,
    find_base_labelings,
    search_labeling,
)

from oracles import brute_tally


@contextmanager
def criterion(num: int, desc: str, limit: float):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    elapsed = time.monotonic() - t0
    status = "PASS" if elapsed < limit else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s / {limit:.0f}s) - {desc}")
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, budget {limit}s"


# ---------------------------------------------------------------------------
# 1. number theory
# ---------------------------------------------------------------------------

def test_criterion_1_number_theory():
    with criterion(1, "symbol paths agree; residue counts; mod-8 rule", 10.0):
        for p in filter(is_odd_prime, range(1000)):
            ctx = LegendreContext(p)
            squares = {(x * x) % p for x in range(1, p)}  # independent enumeration
            residues = 0
            for a in range(1, p):
                table = ctx.symbols[a]
                assert table == euler_criterion(a, p)
                assert table == (1 if a in squares else -1)
                residues += table == 1
            assert residues == (p - 1) // 2
            assert (p - 1) - residues == (p - 1) // 2
        for p in filter(is_odd_prime, range(10_000)):
            assert two_symbol_rule(p) == legendre_symbol(2, LegendreContext(p))


# ---------------------------------------------------------------------------
# 2. product sizes and tensor connectivity
# ---------------------------------------------------------------------------

def _families(max_n: int) -> list[Graph]:
    out = [make_path(n) for n in range(1, max_n + 1)]
    out += [make_cycle(n) for n in range(3, max_n + 1)]
    out += [make_complete(n) for n in range(1, max_n + 1)]
    out += [make_star(n) for n in range(1, max_n + 1)]
    return out


def test_criterion_2_product_sizes():
    with criterion(2, "six size formulas and tensor connectivity on families n<=8", 10.0):
        corpus = _families(8)
        for g1 in corpus:
            for g2 in corpus:
                n1, n2, e1, e2 = g1.order, g2.order, g1.size, g2.size
                assert join(g1, g2).size == e1 + e2 + n1 * n2
                assert corona(g1, g2).size == e1 + n1 * e2 + n1 * n2
                assert lexicographic(g1, g2).size == e1 * n2 * n2 + n1 * e2
                assert cartesian(g1, g2).size == n1 * e2 + n2 * e1
                t = tensor(g1, g2)
                assert t.size == 2 * e1 * e2
                assert strong(g1, g2).size == t.size + cartesian(g1, g2).size
                if (
                    n1 > 1
                    and n2 > 1
                    and is_connected(g1)
                    and is_connected(g2)
                    and (has_odd_cycle(g1) or has_odd_cycle(g2))
                ):
                    assert is_connected(t), (g1, g2)


# ---------------------------------------------------------------------------
# 3. corona-with-path constructor over a sparse-graph corpus
# ---------------------------------------------------------------------------

def _sparse_corpus() -> list[Graph]:
    """Connected graphs with 2 <= n <= 7 and size in {n-1, n, n+1}."""
    graphs: list[Graph] = []
    for n in range(2, 8):
        graphs.append(make_path(n))  # tree
        if n >= 3:
            graphs.append(make_star(n))  # tree
            graphs.append(make_cycle(n))  # unicyclic
        if n >= 4:
            # caterpillar tree: path on n-1 vertices plus a leaf on vertex 1
            graphs.append(Graph(n, [(i, i + 1) for i in range(n - 2)] + [(1, n - 1)]))
            # unicyclic: cycle on n-1 vertices plus a pendant
            graphs.append(
                Graph(n, [(i, (i + 1) % (n - 1)) for i in range(n - 1)] + [(0, n - 1)])
            )
            # bicyclic: cycle with a chord
            graphs.append(Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 2)]))
        if n >= 5:
            # unicyclic: triangle with a path tail
            graphs.append(
                Graph(n, [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, n - 1)])
            )
    seen, out = set(), []
    for g in graphs:
        assert is_connected(g) and g.size in (g.order - 1, g.order, g.order + 1)
        if (g.order, g.edges) not in seen:
            seen.add((g.order, g.edges))
            out.append(g)
    return out


def test_criterion_3_corona_path_constructor():
    with criterion(3, "corona-with-path over trees/unicyclic/bicyclic, p in {3,5,11,13}", 30.0):
        corpus = _sparse_corpus()
        assert len(corpus) >= 25
        for p in (3, 5, 11, 13):
            for g in corpus:
                graph, lab, pred = construct_corona_path(g, p)
                n, q = g.order, g.size
                # closed forms restated independently of the constructor
                assert pred.e0 == n * (p - 3) // 2 + n * (p - 1) // 2 + n
                assert pred.e1 == n * (p - 1) // 2 + n * (p - 3) // 2 + q
                assert sorted(lab.assign) == list(range(1, graph.order + 1))
                assert brute_tally(graph.edges, lab.assign, p) == (pred.e0, pred.e1)
                assert abs(pred.e0 - pred.e1) <= 1


# ---------------------------------------------------------------------------
# 4. complete-factor tensor constructor
# ---------------------------------------------------------------------------

def test_criterion_4_kp_tensor_constructor():
    with criterion(4, "K_p tensor bipartite G gives the exactly balanced tally", 30.0):
        bipartite = [make_path(n) for n in (2, 3, 4, 5)]
        bipartite += [make_cycle(4), make_cycle(6)]
        bipartite += [make_star(n) for n in (2, 3, 4, 5, 6)]
        for p in (3, 5, 7):
            for g in bipartite:
                graph, lab, pred = construct_kp_tensor(g, p)
                half = g.size * p * (p - 1) // 2
                assert (pred.e0, pred.e1) == (half, half)
                assert brute_tally(graph.edges, lab.assign, p) == (half, half)


# ---------------------------------------------------------------------------
# 5. hypothesis-driven constructors via the base-labeling oracle
# ---------------------------------------------------------------------------

EDGE3 = Graph(3, [(0, 1)])
EDGE5 = Graph(5, [(0, 1)])
H7 = Graph(7, [(0, 6), (1, 5), (2, 4), (1, 6), (2, 5), (3, 6), (4, 5)])

# (theorem, g1, g2, p, expected outcome)
ORACLE_CASES = [
    ("join", make_cycle(3), make_complete(1), 3, "none"),
    ("join", make_path(3), make_complete(1), 3, "found"),
    ("join", make_path(3), make_path(2), 3, "none"),
    ("join", make_cycle(6), make_complete(1), 3, "found"),
    ("join", make_cycle(5), make_complete(1), 5, "found"),
    ("corona", make_path(2), EDGE3, 3, "found"),
    ("corona", make_path(2), make_cycle(3), 3, "none"),
    ("corona", make_path(2), EDGE5, 5, "found"),
    ("lexicographic", make_cycle(3), Graph(3, []), 3, "none"),
    ("lexicographic", make_cycle(3), EDGE3, 3, "none"),
    ("lexicographic", make_cycle(3), make_path(3), 3, "none"),
    ("lexicographic", make_cycle(3), make_cycle(3), 3, "none"),
    ("lexicographic", make_cycle(3), make_complete(5), 5, "none"),
    ("lexicographic", make_cycle(3), make_cycle(5), 5, "none"),
    ("cartesian", make_cycle(3), make_cycle(4), 3, "none"),
    ("cartesian", make_cycle(6), make_cycle(4), 3, "found"),
    ("cartesian", make_cycle(5), make_cycle(4), 5, "found"),
    ("tensor", make_cycle(3), make_cycle(4), 3, "none"),
    ("tensor", make_path(3), make_cycle(3), 3, "found"),
    ("tensor", make_path(5), make_cycle(3), 5, "found"),
    ("strong", make_cycle(9), make_path(4), 3, "found"),
    ("strong", make_cycle(15), make_path(3), 5, "found"),  # |V(g1)| = 3p
]


def test_criterion_5_oracle_driven_constructors():
    with criterion(5, "base-labeling oracle: recipe verified or none by exhaustion", 300.0):
        found_cartesian_witness = False
        for theorem, g1, g2, p, expected in ORACLE_CASES:
            out = find_base_labelings(theorem, g1, g2, p)
            assert out.outcome == expected, (theorem, g1, g2, p, out.outcome)
            if out.outcome == "found":
                graph, lab, pred = run_recipe(out.recipe)
                assert brute_tally(graph.edges, lab.assign, p) == (pred.e0, pred.e1)
                assert abs(pred.e0 - pred.e1) <= 1
            if (theorem, p) == ("cartesian", 5) and out.outcome == "found":
                graph, lab, pred = run_recipe(out.recipe)
                assert (pred.e0, pred.e1) == (20, 20)
                found_cartesian_witness = True
        assert found_cartesian_witness
        # the documented witness class member passes the same hypothesis
        lab = Labeling(make_cycle(5), (2, 1, 3, 5, 4))
        tally = induced_tally(lab, LegendreContext(5))
        assert (tally.e0, tally.e1) == (2, 3)


# ---------------------------------------------------------------------------
# 6. negative oracle
# ---------------------------------------------------------------------------

def test_criterion_6_negative_oracle():
    with criterion(6, "K4 mod 3 has no cordial labeling; C3 count-all = 6", 1.0):
        res = search_labeling(SearchSpec(make_complete(4), 3, mode="prove-none"))
        assert res.outcome == "none" and res.complete
        k4 = make_complete(4)
        for assign in permutations(range(1, 5)):
            assert brute_tally(k4.edges, assign, 3) == (4, 2)
        res = search_labeling(SearchSpec(make_cycle(3), 3, mode="count-all"))
        assert res.count == 6 and res.complete


# ---------------------------------------------------------------------------
# 7. oracle-vs-constructor cross-check on small composites
# ---------------------------------------------------------------------------

def test_criterion_7_cross_check():
    """Every constructor instance with composite order <= 10 is re-verified by
    the labeling module (not the constructor's prediction) and confirmed by a
    spot exhaustive search. The lexicographic composite can never reach this
    scale, so it is absent by construction.
    """
    with criterion(7, "constructed labelings re-verified and confirmed by search", 120.0):
        instances = [
            (construct_corona_path(make_path(2), 3), 3),
            (construct_corona_path(make_path(3), 3), 3),
            (construct_corona_path(make_cycle(3), 3), 3),
            (construct_corona_path(make_path(2), 5), 5),
            (construct_kp_tensor(make_path(2), 3), 3),
            (construct_kp_tensor(make_path(3), 3), 3),
            (construct_kp_tensor(make_path(2), 5), 5),
        ]
        p3 = make_path(3)
        lab_p3 = Labeling(p3, (2, 1, 3))
        k1 = make_complete(1)
        instances.append((construct_join(lab_p3, Labeling(k1, (1,)), 3), 3))
        p2 = make_path(2)
        instances.append((construct_corona(Labeling(p2, (1, 2)), Labeling(EDGE3, (1, 3, 2)), 3), 3))
        instances.append((construct_cartesian(lab_p3, k1, 3), 3))
        instances.append((construct_tensor(lab_p3, make_cycle(3), 3), 3))
        c9 = make_cycle(9)
        res = search_labeling(SearchSpec(c9, 3, objective=DiffWindow.exact(1)))
        instances.append((construct_strong(Labeling(c9, res.labeling), k1, 3), 3))
        c6 = make_cycle(6)
        out = find_base_labelings("join", c6, k1, 3)
        instances.append((run_recipe(out.recipe), 3))

        for (graph, lab, pred), p in instances:
            assert graph.order <= 10
            # independent of the constructor's prediction
            tally = induced_tally(lab, LegendreContext(p))
            assert (tally.e0, tally.e1) == (pred.e0, pred.e1)
            assert tally.is_cordial
            assert brute_tally(graph.edges, lab.assign, p) == (tally.e0, tally.e1)
            # a cordial labeling exists; the constructed one qualifies
            found = search_labeling(SearchSpec(graph, p))
            assert found.outcome == "found"


# ---------------------------------------------------------------------------
# 8. block-offset invariance on randomized instances
# ---------------------------------------------------------------------------

def _labeling_pool(graph, p, predicate):
    """All label assignments of a small factor satisfying the predicate."""
    pool = []
    for assign in permutations(range(1, graph.order + 1)):
        if predicate(assign):
            pool.append(tuple(assign))
    assert pool
    return pool


def _diff(graph, assign, p):
    e0, e1 = brute_tally(graph.edges, assign, p)
    return e1 - e0


def _factor_edge_copies(theorem, g1, g2):
    """(factor, base edge, composite copies) for every labeled factor edge."""
    out = []
    if theorem == "join":
        for u, v in g1.edges:
            out.append(("g1", (u, v), [(u, v)]))
        for u, v in g2.edges:
            out.append(("g2", (u, v), [(u + g1.order, v + g1.order)]))
    elif theorem == "corona":
        n, s = g1.order, g2.order
        for u, v in g1.edges:
            out.append(("g1", (u, v), [(n * s + u, n * s + v)]))
        for a, b in g2.edges:
            out.append(("g2", (a, b), [(i * s + a, i * s + b) for i in range(n)]))
    elif theorem == "lexicographic":
        n, s = g1.order, g2.order
        for a, b in g2.edges:
            out.append(("g2", (a, b), [(i * s + a, i * s + b) for i in range(n)]))
    elif theorem == "cartesian":
        n = g2.order
        for a, b in g1.edges:
            out.append(("g1", (a, b), [(a * n + j, b * n + j) for j in range(n)]))
    elif theorem == "tensor":
        m = g2.order
        for a, b in g1.edges:
            copies = []
            for x, y in g2.edges:
                copies.append((a * m + x, b * m + y))
                copies.append((a * m + y, b * m + x))
            out.append(("g1", (a, b), copies))
    elif theorem == "strong":
        n = g2.order
        for a, b in g1.edges:
            copies = [(a * n + j, b * n + j) for j in range(n)]
            for x, y in g2.edges:
                copies.append((a * n + x, b * n + y))
                copies.append((a * n + y, b * n + x))
            out.append(("g1", (a, b), copies))
    return out


def test_criterion_8_block_offset_invariance():
    with criterion(8, "composite endpoint sums match base sums mod p, 100 instances", 10.0):
        rng = random.Random(20250808)
        c6, c5, c4, c3 = make_cycle(6), make_cycle(5), make_cycle(4), make_cycle(3)
        p2, p5g, k1 = make_path(2), make_path(5), make_complete(1)

        join_pool = _labeling_pool(c6, 3, lambda a: 1 <= _diff(c6, a, 3) <= 3)
        join5_pool = _labeling_pool(c5, 5, lambda a: 0 <= _diff(c5, a, 5) <= 2)
        corona_pool = _labeling_pool(EDGE3, 3, lambda a: _diff(EDGE3, a, 3) == 1)
        lex_pool = _labeling_pool(H7, 7, lambda a: _diff(H7, a, 7) == 7)
        cart_pool = _labeling_pool(c5, 5, lambda a: _diff(c5, a, 5) == 1)
        tensor_pool = _labeling_pool(p5g, 5, lambda a: _diff(p5g, a, 5) == 0)

        c9 = make_cycle(9)

        def strong_base():
            while True:  # about 1 in 10 random labelings hits the target
                assign = list(range(1, 10))
                rng.shuffle(assign)
                if _diff(c9, tuple(assign), 3) == 1:
                    return tuple(assign)

        def build(idx):
            kind = idx % 6
            if kind == 0:
                lab1 = rng.choice(join_pool)
                return "join", *construct_join(Labeling(c6, lab1), Labeling(k1, (1,)), 3), c6, k1, (lab1, (1,)), 3
            if kind == 1:
                lab2 = rng.choice(corona_pool)
                return "corona", *construct_corona(Labeling(p2, (1, 2)), Labeling(EDGE3, lab2), 3), p2, EDGE3, ((1, 2), lab2), 3
            if kind == 2:
                lab2 = rng.choice(lex_pool)
                return "lexicographic", *construct_lexicographic(c3, Labeling(H7, lab2), 7), c3, H7, (None, lab2), 7
            if kind == 3:
                lab1 = rng.choice(cart_pool)
                return "cartesian", *construct_cartesian(Labeling(c5, lab1), c4, 5), c5, c4, (lab1, None), 5
            if kind == 4:
                lab1 = rng.choice(tensor_pool)
                return "tensor", *construct_tensor(Labeling(p5g, lab1), c3, 5), p5g, c3, (lab1, None), 5
            lab1 = strong_base()
            return "strong", *construct_strong(Labeling(c9, lab1), make_path(4), 3), c9, make_path(4), (lab1, None), 3

        for idx in range(100):
            theorem, graph, lab, pred, g1, g2, (base1, base2), p = build(idx)
            edge_set = set(graph.edges)
            for factor, (u, v), copies in _factor_edge_copies(theorem, g1, g2):
                base = base1 if factor == "g1" else base2
                base_sum = base[u] + base[v]
                for cu, cv in copies:
                    canon = (cu, cv) if cu < cv else (cv, cu)
                    assert canon in edge_set
                    assert (lab.assign[cu] + lab.assign[cv]) % p == base_sum % p
