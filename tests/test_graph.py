import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcordial import graph

from legcordial.graph import (
    JSON_CHUNK,
    MAX_ORDER,
    MAX_SIZE,
    Graph,
    adjacency,
    bipartition,
    check_shape,
    exact_int,
    exact_ints,
    graph_dumps,
    graph_from_json,
    graph_json_pieces,
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


@pytest.mark.parametrize("family,low", [(make_path, 1), (make_cycle, 3), (make_complete, 1), (make_star, 1)])
def test_families_emit_canonical_edges(family, low):
    # the families skip Graph's checks, so they must emit exactly what the
    # checked path would store: unique (u, v) with u < v, strictly increasing
    with pytest.raises(ValueError, match=f"order must be >= {low}, got {low - 1}"):
        family(low - 1)
    for n in range(low, 13):
        g = family(n)
        assert Graph(g.order, g.edges) == g
        assert all(u < v for u, v in g.edges)
        assert all(a < b for a, b in zip(g.edges, g.edges[1:]))


def test_family_validation():
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_path(0)


@pytest.mark.parametrize(
    "family,what",
    [(make_path, "path"), (make_cycle, "cycle"), (make_complete, "complete-graph"), (make_star, "star")],
)
@pytest.mark.parametrize("n", [True, 2.0])
def test_families_refuse_orders_that_are_not_ints(family, what, n):
    # they build past Graph.__init__, so they check the order themselves
    with pytest.raises(TypeError, match=f"^{what} order must be an integer, got {n}$"):
        family(n)


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


def test_graph_refuses_more_input_pairs_than_max_size(monkeypatch):
    monkeypatch.setattr(graph, "MAX_SIZE", 5)

    def checked_path(order, edges):
        raise AssertionError("pairs over the cap reached the checked path")

    monkeypatch.setattr(graph, "_canonicalize", checked_path)
    path = [(i, i + 1) for i in range(9)]
    refused = "graph size 9 exceeds the supported bound 5"
    with pytest.raises(ValueError, match=refused):
        make_path(10)
    with pytest.raises(ValueError, match=refused):
        Graph(10, path)
    with pytest.raises(ValueError, match=refused):
        graph_from_json({"order": 10, "edges": [list(e) for e in path]})
    # the raw pairs are counted, repeats and reversed pairs included
    with pytest.raises(ValueError, match="graph size 6 exceeds the supported bound 5"):
        Graph(3, [(0, 1), (1, 0)] * 3)
    assert Graph(6, path[:5]).size == 5  # the cap is inclusive
    # an iterator is read only to one pair past the cap
    yielded = [0]

    def pairs():
        for i in range(100):
            yielded[0] += 1
            yield i, i + 1

    with pytest.raises(ValueError, match="graph size 6 exceeds the supported bound 5"):
        Graph(101, pairs())
    assert yielded[0] <= 6
    assert Graph(6, iter(path[:5])).size == 5


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [], names=["a"])
    # the order must be an exact int, as JSON input must
    for order, edges in ((3.0, [(0, 1), (1, 2)]), (True, [])):
        with pytest.raises(TypeError, match=f"graph order must be an integer, got {order}"):
            Graph(order, edges)


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
    assert bipartition(make_cycle(4)) == (1, 2, 1, 2)
    assert bipartition(make_cycle(3)) is None
    assert bipartition(make_path(3)) == (1, 2, 1)
    # disconnected: each component is colored from its lowest vertex
    assert bipartition(Graph(5, [(0, 3), (1, 2), (2, 4)])) == (1, 1, 2, 2, 1)
    assert bipartition(Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])) is None


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


def test_names_must_be_strings_one_per_vertex():
    assert Graph(3, [(0, 1)], names=("a", "b", "c")).names == ("a", "b", "c")
    assert Graph(3, [(0, 1)], names=["a", "b", "c"]).names == ("a", "b", "c")
    # a string is a sequence of one-character strings, but not a list of names
    with pytest.raises(TypeError, match="names must be a list of strings, got str"):
        Graph(3, [(0, 1), (1, 2)], names="abc")
    with pytest.raises(TypeError, match="vertex name must be a string, got None"):
        Graph(3, [(0, 1), (1, 2)], names=["a", None, "c"])
    with pytest.raises(TypeError, match="vertex name must be a string, got 1"):
        Graph(3, [(0, 1), (1, 2)], names=[1, None, 3])
    with pytest.raises(TypeError, match="got dict"):
        Graph(2, [], names={"a": 0, "b": 1})
    with pytest.raises(ValueError, match="one entry per vertex"):
        Graph(2, [], names=["a", "b", "c"])
    for names in ("abc", [1, None, 3]):
        with pytest.raises(ValueError, match="malformed graph JSON: "):
            graph_from_json({"order": 3, "edges": [[0, 1], [1, 2]], "names": names})


@pytest.mark.parametrize(
    "g",
    [
        Graph(1),
        make_path(JSON_CHUNK + 1),  # exactly one chunk of edges
        make_path(JSON_CHUNK + 2),  # one chunk plus one
        make_cycle(2 * JSON_CHUNK),
        Graph(3, [(0, 1), (1, 2)], names=['say "hi"', "Zürich \u2713 \\", ""]),
    ],
    ids=["no-edges", "one-chunk", "chunk-plus-one", "two-chunks", "quoted-names"],
)
def test_json_pieces_are_the_dumps_text(g):
    pieces = list(graph_json_pieces(g))
    assert "".join(pieces) == json.dumps(graph_to_json(g)) == graph_dumps(g)
    # the opening, one piece per chunk of at most JSON_CHUNK edges, the closing
    chunks = [json.loads("[" + piece.removeprefix(", ") + "]") for piece in pieces[1:-1]]
    assert list(map(len, chunks)) == [min(JSON_CHUNK, g.size - i) for i in range(0, g.size, JSON_CHUNK)]
    extra = {"convention": "(i, j)", "connected": False, "warnings": ["result is disconnected"]}
    assert "".join(graph_json_pieces(g, extra)) == json.dumps({**graph_to_json(g), **extra})


def test_dot_export():
    g = make_cycle(3)
    text = graph_to_dot(g, vertex_labels=[1, 2, 3], edge_labels={(0, 1): 0, (1, 2): 1, (0, 2): 0})
    assert "0 -- 1" in text and "royalblue" in text and "crimson" in text
    plain = graph_to_dot(g)
    assert plain.startswith("graph G {") and "0 -- 1;" in plain
    named = graph_to_dot(Graph(2, [(0, 1)], names=["x", "y z"]), vertex_labels=[2, 1])
    assert named.splitlines()[1:3] == ['  0 [label="x:2"];', '  1 [label="y z:1"];']


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


# ---------------------------------------------------------------------------
# The linear pass against the checked path
# ---------------------------------------------------------------------------

def _outcome(build):
    """What a build gives: the graph (with its endpoint types, since True == 1
    and 1.0 == 1), or the exception type and message."""
    try:
        g = build()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return g.order, g.edges, g.names, [tuple(map(type, e)) for e in g.edges]


def _checked(build):
    """The same build with the linear pass switched off: the checked path."""
    with mock.patch.object(graph, "_canonical_run", return_value=None):
        return _outcome(build)


def _from_json_reference(obj: dict) -> Graph:
    """graph_from_json without the linear pass, for objects with both keys:
    the order must be an exact int in range, every endpoint an exact int,
    then Graph."""
    try:
        order = exact_int(obj["order"], "graph order")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
        pairs = [exact_ints(e, "graph endpoint") for e in obj["edges"]]
        return Graph(order, pairs, obj.get("names"))
    except TypeError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def _insert(edges: list, data, pair) -> None:
    edges.insert(data.draw(st.integers(0, len(edges))), pair)


def _mutate(edges: list, order: int, data, kind: str) -> None:
    k = data.draw(st.integers(0, order - 1))
    if kind == "shuffle":
        edges[:] = data.draw(st.permutations(edges))
    elif kind == "swap-neighbours" and len(edges) > 1:
        i = data.draw(st.integers(0, len(edges) - 2))
        edges[i], edges[i + 1] = edges[i + 1], edges[i]
    elif kind == "reverse" and edges:
        i = data.draw(st.integers(0, len(edges) - 1))
        edges[i] = edges[i][::-1]
    elif kind == "duplicate" and edges:  # next to the original; "shuffle" moves it
        i = data.draw(st.integers(0, len(edges) - 1))
        edges.insert(i + 1, edges[i])
    elif kind == "self-loop":
        _insert(edges, data, (k, k))
    elif kind == "negative":
        _insert(edges, data, (-1, k))
    elif kind == "out-of-range":
        _insert(edges, data, (k, order + data.draw(st.integers(0, 2))))
    elif kind == "arity":
        _insert(edges, data, data.draw(st.sampled_from([(k,), (k, k + 1, k + 2), ()])))
    elif kind in ("str", "float", "bool") and edges:
        i = data.draw(st.integers(0, len(edges) - 1))
        pair = list(edges[i])
        # only an entry that is still an int: float("True") would raise here
        ints = [j for j, x in enumerate(pair) if type(x) is int]
        if ints:
            j = data.draw(st.sampled_from(ints))
            pair[j] = {"str": str, "float": float, "bool": bool}[kind](pair[j])
            edges[i] = tuple(pair)


MUTATIONS = (
    "shuffle", "swap-neighbours", "reverse", "duplicate", "self-loop",
    "negative", "out-of-range", "arity", "str", "float", "bool",
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_pass_matches_checked_path(data):
    order = data.draw(st.integers(1, 8))
    canonical = sorted(data.draw(st.sets(
        st.tuples(st.integers(0, order - 1), st.integers(0, order - 1)).filter(lambda e: e[0] < e[1]),
        max_size=12,
    )))
    edges: list = list(canonical)
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        _mutate(edges, order, data, kind)
    edges = [data.draw(st.sampled_from([tuple, list]))(e) for e in edges]
    edges = data.draw(st.sampled_from([list, tuple]))(edges)
    names = data.draw(st.none() | st.lists(st.just("x"), min_size=max(order - 1, 0), max_size=order + 1))

    got = _outcome(lambda: Graph(order, edges, names))
    assert got == _checked(lambda: Graph(order, edges, names))
    if edges == canonical and names is None and all(type(x) is int for e in edges for x in e):
        assert got[1] == tuple(canonical)  # untouched input: the pass keeps it

    # "3", 3.0 and true are refused as orders; 0 reaches Graph's range check
    obj = {"order": data.draw(st.sampled_from([order, str(order), float(order), True, 0])), "edges": edges}
    if names is not None:
        obj["names"] = names
    assert _outcome(lambda: graph_from_json(obj)) == _checked(lambda: _from_json_reference(obj))


def test_canonical_input_skips_the_checked_path(monkeypatch):
    def checked_path(order, edges):
        raise AssertionError("canonical edges reached the checked path")

    g = cartesian(make_cycle(4), make_path(3))
    monkeypatch.setattr(graph, "_canonicalize", checked_path)
    assert Graph(g.order, g.edges) == g
    assert Graph(g.order, [list(e) for e in g.edges]) == g
    assert graph_from_json(graph_to_json(g)) == g
    assert graph_loads(graph_dumps(g)).edges == g.edges


def test_other_input_takes_the_checked_path():
    # shuffled, reversed, repeated, and iterators
    assert Graph(3, [(1, 2), (0, 1)]).edges == ((0, 1), (1, 2))
    assert Graph(3, [(1, 0), (0, 1)]).edges == ((0, 1),)
    assert Graph(3, [(0, 1), (0, 1), (1, 2)]).edges == ((0, 1), (1, 2))
    assert Graph(3, iter([(0, 1), (1, 2)])).edges == ((0, 1), (1, 2))
    # endpoints must be exact ints: bool and float ones are refused, also
    # when an equal int pair comes first
    for edges, bad in (
        ([(False, 2)], "False"),
        ([(0, 1.5)], "1.5"),
        ([(1, 2), (True, 2)], "True"),
        ([(0, 1), (2.0, 2.0)], "2.0"),
        (iter([(0, 1), (1, None)]), "None"),
    ):
        with pytest.raises(TypeError, match=re.escape(f"graph endpoint must be an integer, got {bad}")):
            Graph(3, edges)
    # each edge must be a pair, named as JSON writes it, and the edges a list
    for edges, bad in (([(0, 1, 2)], "[0, 1, 2]"), ([(0, 1), [0]], "[0]"), ([()], "[]"), ([5], "5"),
                       ([(0, 1), None], "None")):
        with pytest.raises(TypeError, match=re.escape(f"graph edge must be a pair of endpoints, got {bad}")):
            Graph(3, edges)
    for edges in (5, None):
        with pytest.raises(TypeError, match=re.escape(f"graph edges must be a list of pairs, got {edges}")):
            Graph(3, edges)
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(3, [(0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"edge \(0,3\) out of range for order 3"):
        Graph(3, [(0, 1), (0, 3)])
    # JSON endpoints and orders must be exact ints: nothing is converted
    assert graph_from_json({"order": 3, "edges": [[1, 2], [0, 1]]}).edges == ((0, 1), (1, 2))
    for obj, bad in (
        ({"order": 3, "edges": [[0, 1], [1.0, 2]]}, "graph endpoint must be an integer, got 1.0"),
        ({"order": 3, "edges": [[0, 1], [True, 2]]}, "graph endpoint must be an integer, got True"),
        ({"order": 3.7, "edges": [[0, 1.9], [True, 2]]}, "graph order must be an integer, got 3.7"),
        ({"order": "3", "edges": [[0, 1]]}, "graph order must be an integer, got '3'"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"malformed graph JSON: {bad}")):
            graph_from_json(obj)
    # the order is checked before the edges
    with pytest.raises(ValueError, match=re.escape(f"order must be in 1..{MAX_ORDER}, got 0")):
        graph_from_json({"order": 0, "edges": [["a", 1]]})


def test_edges_given_as_iterators_are_read_once():
    # each pair is read once, on the fast path and on the checked path alike
    assert Graph(3, [iter((0, 1)), iter((1, 2))]) == Graph(3, [(0, 1), (1, 2)])
    assert Graph(3, (iter(e) for e in [(2, 1), (0, 1)])).edges == ((0, 1), (1, 2))
    # an edge iterable that fails with its own TypeError raises that error
    with pytest.raises(TypeError, match=r"^int\(\) argument must be "):
        Graph(3, [(0, 1), (int(x) for x in [None])])


def test_exact_int_refuses_what_int_would_convert():
    assert exact_int(3, "x") == 3
    assert exact_ints([1, 2, 3], "x") == (1, 2, 3)
    for value in (3.0, 3.9, "3", True, None, [3]):
        with pytest.raises(TypeError, match=r"^x must be an integer, got "):
            exact_int(value, "x")
        with pytest.raises(TypeError, match=r"^x must be an integer, got "):
            exact_ints([1, value, 3], "x")
    for value in (5, None):
        with pytest.raises(TypeError, match=f"^labels must be a list of integers, got {value}$"):
            exact_ints(value, "x")
