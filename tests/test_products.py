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
from legcordial.products import (
    cartesian,
    corona,
    corona_copy_index,
    corona_host_index,
    index_pair,
    join,
    lexicographic,
    pair_index,
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


@given(st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=40)
def test_pair_index_round_trip(n1, n2):
    for i in range(n1):
        for j in range(n2):
            assert index_pair(pair_index(i, j, n2), n2) == (i, j)


def test_vertex_maps_are_bijections():
    n, s = 3, 4
    copy_ids = {corona_copy_index(i, j, s) for i in range(n) for j in range(s)}
    host_ids = {corona_host_index(i, n, s) for i in range(n)}
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
