from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legcordial.graph import (
    MAX_SIZE,
    Graph,
    adjacency,
    has_odd_cycle,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
)
from legcordial.constructors import (
    construct_cartesian,
    construct_corona,
    construct_corona_path,
    construct_lexicographic,
    construct_strong,
    construct_tensor,
)
from legcordial.labeling import Labeling
from legcordial.products import (
    cartesian,
    corona,
    join,
    lexicographic,
    pair_labels,
    strong,
    tensor,
)


@st.composite
def graphs(draw, max_order=6):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pool = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_order=2, max_order=6):
    """A random spanning tree (each vertex hangs off an earlier one) plus extra edges."""
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pool = list(combinations(range(n), 2))
    edges += draw(st.lists(st.sampled_from(pool), max_size=len(pool)))
    return Graph(n, edges)


def family_corpus(max_n=8):
    out = [make_path(n) for n in range(1, max_n + 1)]
    out += [make_cycle(n) for n in range(3, max_n + 1)]
    out += [make_complete(n) for n in range(1, max_n + 1)]
    out += [make_star(n) for n in range(1, max_n + 1)]
    return out


def test_join_examples():
    k3 = join(make_complete(1), make_path(2))
    assert (k3.order, k3.size) == (3, 3)
    k4 = join(make_path(2), make_path(2))
    assert k4 == make_complete(4)


def test_corona_examples():
    p2 = corona(make_complete(1), make_complete(1))
    assert (p2.order, p2.size) == (2, 1)
    g = corona(make_cycle(3), make_path(2))
    assert (g.order, g.size) == (9, 12)
    # corona(P2, K1): path-shaped on 4 vertices, never P4's exact edge set
    g = corona(make_path(2), make_complete(1))
    assert (g.order, g.size) == (4, 3)
    assert sorted(map(len, adjacency(g))) == [1, 1, 2, 2]
    assert is_connected(g)


def test_lexicographic_examples():
    assert lexicographic(make_path(2), make_path(2)) == make_complete(4)
    g = make_cycle(5)
    assert lexicographic(make_complete(1), g) == g
    assert lexicographic(make_cycle(3), make_path(3)).size == 3 * 9 + 3 * 2


def test_cartesian_examples():
    c4 = cartesian(make_path(2), make_path(2))
    assert (c4.order, c4.size) == (4, 4)
    assert [len(nbrs) for nbrs in adjacency(c4)] == [2, 2, 2, 2]
    assert is_connected(c4)
    g = make_star(4)
    assert cartesian(make_complete(1), g) == g
    assert cartesian(make_cycle(3), make_path(4)).size == 3 * 3 + 4 * 3


def test_tensor_examples():
    g = tensor(make_path(2), make_path(2))
    assert (g.order, g.size) == (4, 2)
    assert not is_connected(g)
    g = tensor(make_cycle(3), make_path(2))
    assert g.size == 6
    assert is_connected(g)


def test_strong_examples():
    assert strong(make_complete(2), make_complete(2)) == make_complete(4)
    g = make_path(4)
    assert strong(make_complete(1), g) == g


@pytest.mark.parametrize("g1", family_corpus(5))
@pytest.mark.parametrize("g2", family_corpus(5))
def test_size_formulas_on_families(g1, g2):
    n1, n2, e1, e2 = g1.order, g2.order, g1.size, g2.size
    assert join(g1, g2).size == e1 + e2 + n1 * n2
    assert corona(g1, g2).size == e1 + n1 * e2 + n1 * n2
    assert lexicographic(g1, g2).size == e1 * n2 * n2 + n1 * e2
    assert cartesian(g1, g2).size == n1 * e2 + n2 * e1
    assert tensor(g1, g2).size == 2 * e1 * e2
    assert strong(g1, g2).size == cartesian(g1, g2).size + tensor(g1, g2).size


@given(graphs(), graphs())
@settings(max_examples=80, deadline=None)
def test_size_formulas_random(g1, g2):
    n1, n2, e1, e2 = g1.order, g2.order, g1.size, g2.size
    assert join(g1, g2).size == e1 + e2 + n1 * n2
    assert corona(g1, g2).size == e1 + n1 * e2 + n1 * n2
    assert lexicographic(g1, g2).size == e1 * n2 * n2 + n1 * e2
    assert cartesian(g1, g2).size == n1 * e2 + n2 * e1
    assert tensor(g1, g2).size == 2 * e1 * e2
    assert strong(g1, g2).size == cartesian(g1, g2).size + tensor(g1, g2).size


@given(graphs(max_order=5), graphs(max_order=5))
@settings(max_examples=60, deadline=None)
def test_cartesian_tensor_disjoint(g1, g2):
    assert not set(cartesian(g1, g2).edges) & set(tensor(g1, g2).edges)


def test_tensor_connectivity_condition():
    # both connected, nontrivial, one odd cycle -> connected product
    for g1 in family_corpus(6):
        for g2 in family_corpus(6):
            if g1.order < 2 or g2.order < 2:
                continue
            if is_connected(g1) and is_connected(g2) and (has_odd_cycle(g1) or has_odd_cycle(g2)):
                assert is_connected(tensor(g1, g2)), (g1, g2)


@given(connected_graphs(), connected_graphs())
@settings(max_examples=80, deadline=None)
def test_tensor_connectivity_condition_random(g1, g2):
    assume(has_odd_cycle(g1) or has_odd_cycle(g2))
    assert is_connected(tensor(g1, g2))


@pytest.mark.parametrize(
    "op", (join, corona, lexicographic, cartesian, tensor, strong), ids=lambda f: f.__name__
)
@given(graphs(), graphs())
@settings(max_examples=60, deadline=None)
def test_products_match_the_checked_constructor(op, g1, g2):
    # products skip Graph.__init__'s canonicalization; rebuilding through it
    # must change nothing
    r = op(g1, g2)
    assert Graph(r.order, r.edges) == r
    assert all(u < v for u, v in r.edges)
    assert all(e < f for e, f in zip(r.edges, r.edges[1:]))
    assert r.names is None


def test_tensor_bipartite_factors_disconnect():
    assert not is_connected(tensor(make_path(3), make_cycle(4)))


def test_pair_labels_is_the_outer_sum_in_pair_index_order():
    for n1 in range(6):
        for n2 in range(6):
            first = [7 * i + 3 for i in range(n1)]
            second = [11 * j - 5 for j in range(n2)]
            labels = pair_labels(first, second)
            assert len(labels) == n1 * n2
            for i in range(n1):
                for j in range(n2):
                    assert labels[i * n2 + j] == first[i] + second[j]


def _columns(base, columns):
    """Vertex (a, j) takes base[a] shifted by j * len(base)."""
    out = [0] * (len(base) * columns)
    for a, x in enumerate(base):
        for j in range(columns):
            out[a * columns + j] = x + j * len(base)
    return out


def _blocks(blocks, base):
    """Vertex j of block i takes base[j] shifted by i * len(base)."""
    out = [0] * (blocks * len(base))
    for i in range(blocks):
        for j, x in enumerate(base):
            out[i * len(base) + j] = x + i * len(base)
    return out


def _corona_labels(host_labels, copy_labels, shift):
    """Copy i takes copy_labels shifted by i * shift; host i takes host_labels[i]."""
    n, s = len(host_labels), len(copy_labels)
    out = [0] * (n * s + n)
    for i in range(n):
        for j, x in enumerate(copy_labels):
            out[i * s + j] = x + i * shift
        out[n * s + i] = host_labels[i]
    return out


H7 = Graph(7, [(0, 6), (1, 5), (2, 4), (1, 6), (2, 5), (3, 6), (4, 5)])
C5_LAB = (2, 1, 3, 5, 4)  # rho - eta = 1 at p = 5
P3_LAB = (2, 1, 3)  # rho - eta = 0 at p = 3
C9_LAB = (1, 2, 3, 4, 5, 8, 6, 7, 9)  # rho - eta = 1 at p = 3
SATELLITE = (1, 3, 2)  # rho - eta = 1 at p = 3 on the one-edge graph of order 3

# theorem -> (its construction, the labeling written out index by index), one
# instance per outer-sum construction with more than one block or column
LAYOUT_CASES = {
    "cartesian": (
        lambda: construct_cartesian(Labeling(make_cycle(5), C5_LAB), make_cycle(4), 5),
        _columns(C5_LAB, 4),
    ),
    "tensor": (
        lambda: construct_tensor(Labeling(make_path(3), P3_LAB), make_cycle(3), 3),
        _columns(P3_LAB, 3),
    ),
    "strong": (
        lambda: construct_strong(Labeling(make_cycle(9), C9_LAB), make_path(4), 3),
        _columns(C9_LAB, 4),
    ),
    "lexicographic": (
        lambda: construct_lexicographic(make_cycle(3), Labeling(H7, tuple(range(1, 8))), 7),
        _blocks(3, tuple(range(1, 8))),
    ),
    "corona": (
        lambda: construct_corona(
            Labeling(make_path(2), (1, 2)), Labeling(Graph(3, [(0, 1)]), SATELLITE), 3
        ),
        _corona_labels([1 + 6, 2 + 6], SATELLITE, 3),
    ),
    # p = 5: each copy of P4 is labeled 4, 5, 1, 2 and its host 3, shifted by 5 per copy
    "corona-path": (
        lambda: construct_corona_path(make_cycle(4), 5),
        _corona_labels([3 + 5 * i for i in range(4)], (4, 5, 1, 2), 5),
    ),
}


@pytest.mark.parametrize("theorem", sorted(LAYOUT_CASES))
def test_each_construction_lays_out_its_labels_by_pair_index(theorem):
    build, expected = LAYOUT_CASES[theorem]
    _, lab, _ = build()
    assert list(lab.assign) == expected


def test_vertex_maps_are_bijections():
    n, s = 3, 4
    copy_ids = {i * s + j for i in range(n) for j in range(s)}
    host_ids = {n * s + i for i in range(n)}  # hosts come last
    assert copy_ids | host_ids == set(range(n * s + n))
    assert not copy_ids & host_ids


def test_order_cap():
    big = make_path(2000)
    with pytest.raises(ValueError):
        lexicographic(big, big)


@pytest.mark.parametrize(
    "op,g1,g2",
    [
        (join, make_star(1500), make_star(1500)),  # 1500 * 1500 cross edges
        (corona, make_path(1000), make_complete(100)),  # 1000 copies of 4950 edges
        (lexicographic, make_path(1000), make_path(100)),  # 999 * 100 * 100 edges
        (cartesian, make_complete(200), make_complete(200)),  # 2 * 200 * 19900 edges
        (tensor, make_complete(100), make_complete(100)),  # 2 * 4950 * 4950 edges
        (strong, make_complete(100), make_complete(100)),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_size_cap_refuses_before_building(op, g1, g2):
    with pytest.raises(ValueError, match=f"composite size .* exceeds the supported bound {MAX_SIZE}"):
        op(g1, g2)
