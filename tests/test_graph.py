import random

import pytest

from legcordial.graph import (
    MAX_ORDER,
    MAX_SIZE,
    Graph,
    adjacency,
    bipartition,
    check_shape,
    graph_dumps,
    graph_from_json,
    graph_loads,
    graph_to_dot,
    graph_to_json,
    has_odd_cycle,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
)
from legcordial.products import cartesian


def test_family_sizes():
    assert make_path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert make_complete(4).size == 6
    assert make_cycle(3).size == 3
    for n in range(1, 9):
        assert make_path(n).size == n - 1
        assert make_complete(n).size == n * (n - 1) // 2
        assert make_star(n).size == n - 1
    for n in range(3, 9):
        assert make_cycle(n).size == n


def test_family_validation():
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_path(0)


def test_size_caps():
    check_shape(MAX_ORDER, MAX_SIZE)  # both bounds are inclusive
    with pytest.raises(ValueError, match="size"):
        check_shape(10, MAX_SIZE + 1)
    with pytest.raises(ValueError, match="order"):
        check_shape(MAX_ORDER + 1, 0)
    # refused from the closed-form size, before any edge list exists
    with pytest.raises(ValueError, match=f"graph size 449985000 exceeds the supported bound {MAX_SIZE}"):
        make_complete(30_000)
    for family in (make_path, make_cycle, make_star):
        with pytest.raises(ValueError, match="graph order"):
            family(10**9)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [], names=["a"])


def test_edge_order_invariance():
    a = Graph(4, [(2, 3), (0, 1), (1, 0)])
    b = Graph(4, [(0, 1), (3, 2)])
    assert a == b
    assert hash(a) == hash(b)


def test_connectivity():
    assert is_connected(make_path(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(make_complete(1))


def test_bipartition():
    sides = bipartition(make_cycle(4))
    assert sides is not None
    assert {sides.side(1), sides.side(2)} == {frozenset({0, 2}), frozenset({1, 3})}
    assert bipartition(make_cycle(3)) is None
    sides = bipartition(make_path(3))
    assert {sides.side(1), sides.side(2)} == {frozenset({0, 2}), frozenset({1})}
    with pytest.raises(ValueError):
        bipartition(Graph(4, [(0, 1), (2, 3)]))


def test_has_odd_cycle():
    assert has_odd_cycle(make_cycle(3))
    assert not has_odd_cycle(make_cycle(6))
    assert has_odd_cycle(make_complete(4))
    # disconnected: any component counts
    assert has_odd_cycle(Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))


@pytest.mark.parametrize("g", [make_path(1), make_path(6), make_cycle(5), make_cycle(6), make_complete(5), make_star(6)])
def test_bipartite_xor_odd_cycle(g):
    assert (bipartition(g) is not None) != has_odd_cycle(g)


def test_json_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)], names=["a", "b", "c", "d"])
    assert graph_from_json(graph_to_json(g)) == g
    assert graph_loads(graph_dumps(g)) == g
    assert "\n" not in graph_dumps(g)
    # extra keys are tolerated
    obj = graph_to_json(g)
    obj["convention"] = "whatever"
    assert graph_from_json(obj) == g
    with pytest.raises(ValueError):
        graph_from_json({"edges": []})


def test_dot_export():
    g = make_cycle(3)
    text = graph_to_dot(g, vertex_labels=[1, 2, 3], edge_labels={(0, 1): 0, (1, 2): 1, (0, 2): 0})
    assert "0 -- 1" in text and "royalblue" in text and "crimson" in text
    plain = graph_to_dot(g)
    assert plain.startswith("graph G {") and "0 -- 1;" in plain


def test_adjacency():
    adj = adjacency(make_star(4))
    assert adj[0] == [1, 2, 3]
    assert adj[1] == [0]


def test_adjacency_is_sorted_without_a_sort():
    # edges given shuffled and in both orientations; Graph keeps them sorted
    rng = random.Random(7)
    pairs = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.5]
    rng.shuffle(pairs)
    g = Graph(9, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
    adj = adjacency(g)
    for w in range(9):
        assert adj[w] == sorted({v for u, v in pairs if u == w} | {u for u, v in pairs if v == w})
    # a product, built through the trusted path
    adj = adjacency(cartesian(make_cycle(4), make_path(3)))
    assert all(lst == sorted(lst) for lst in adj) and sum(map(len, adj)) == 2 * 20
