"""Simple undirected graphs with 0-based vertex indices.

Edges are stored canonically as sorted (min, max) pairs so that two graphs
built from the same edge set compare equal regardless of insertion order.
Input already in that form (as graph_to_json writes it) is taken after one
linear pass; any other input is checked, oriented, deduplicated and sorted.
Standard families (paths, cycles, complete graphs, stars) follow the
1-based naming v1..vn mapped onto indices 0..n-1; vertex labels used by the
labeling machinery are a separate concept and stay 1-based.

Disconnected graphs are representable (they arise as tensor products of
bipartite factors) but the labeling definition only admits connected ones.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice
from operator import attrgetter

MAX_ORDER = 1_000_000  # total-vertex cap shared by every graph builder
# Total-edge cap. Measured peak RSS near it (Python 3.11): construct of
# C5 x C200000 (2 M edges) about 411 MB, of C9 x P50000 (1.8 M) about 308 MB;
# verify of the 2 M-edge graph from files about 539 MB, as it reads the whole
# document. The CLI pauses the cyclic collector while a command runs, which
# nearly halves that verify's time and leaves its peak as it was. README
# "Limits" has the table.
MAX_SIZE = 2_000_000
# Byte cap on a JSON file the CLI reads, checked before it is parsed, as
# reading JSON peaks at 13-18 times its bytes. The largest valid graph
# document, MAX_SIZE edges between six-digit vertices as graph_to_json writes
# them ("[999998, 999999], ", 18 bytes each), takes 36 MB; 20 bytes an edge
# leave room for its head and tail.
MAX_JSON_BYTES = 20 * MAX_SIZE
JSON_CHUNK = 1024  # edges or labels per piece written by the JSON writers

Edge = tuple[int, int]


class Graph:
    """Simple graph: order n, canonical edge tuple, optional names (unguarded: never reassign)."""

    __slots__ = ("order", "edges", "names")

    def __init__(
        self,
        order: int,
        edges: Iterable[Iterable[int]] = (),
        names: Sequence[str] | None = None,
    ):
        if not 1 <= exact_int(order, "graph order") <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
        if not isinstance(edges, (list, tuple)):
            # an iterator can be read only once; one pair past the cap refuses it
            try:
                edges = list(islice(edges, MAX_SIZE + 1))
            except TypeError:
                raise TypeError(f"graph edges must be a list of pairs, got {edges!r}") from None
        # the raw pairs, repeats included, so no more than MAX_SIZE are canonicalized
        check_shape(order, len(edges))
        try:  # one pass in C, which also reads each edge given as an iterator once
            edges = tuple(map(tuple, edges))
        except TypeError:
            for e in edges:
                if not isinstance(e, Iterable):
                    raise TypeError(f"graph edge must be a pair of endpoints, got {e!r}") from None
            raise
        run = _canonical_run(order, edges)
        self.order = order
        self.edges: tuple[Edge, ...] = run if run is not None else _canonicalize(order, edges)
        if names is not None:
            if not isinstance(names, (list, tuple)):
                raise TypeError(f"names must be a list of strings, got {type(names).__name__}")
            if not set(map(type, names)) <= {str}:  # one pass in C when all are strings
                bad = next(x for x in names if type(x) is not str)
                raise TypeError(f"vertex name must be a string, got {bad!r}")
            if len(names) != order:
                raise ValueError("names must have one entry per vertex")
            names = tuple(names)
        self.names = names

    @property
    def size(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and other.order == self.order
            and other.edges == self.edges
        )

    def __hash__(self) -> int:
        return hash((self.order, self.edges))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


def _canonical_run(order: int, edges: tuple[tuple, ...]) -> tuple[Edge, ...] | None:
    """``edges`` when they are already canonical, else None.

    Canonical is how Graph stores edges and graph_to_json writes them: pairs
    (u, v) with exact int endpoints and 0 <= u < v < order, strictly
    increasing. One pass, which stops at the first pair that is not; the
    caller then takes the checked path.
    """
    pu = pv = 0  # the previous pair; pu = 0 also refuses a negative first u
    try:
        for u, v in edges:
            if type(u) is not int or type(v) is not int or not u < v < order:
                return None
            if u == pu:
                if v <= pv:
                    return None
            elif u < pu:
                return None
            pu, pv = u, v
    except ValueError:  # not a pair
        return None
    return edges


def _canonicalize(order: int, edges: tuple[tuple, ...]) -> tuple[Edge, ...]:
    """The checked path: refuse endpoints that are not exact ints and edges
    that are not pairs (TypeError), self-loops and out-of-range endpoints
    (ValueError), then orient each pair (min, max), drop repeats and sort."""
    if not set(map(type, chain.from_iterable(edges))) <= {int}:  # one pass in C when all are ints
        for x in chain.from_iterable(edges):
            exact_int(x, "graph endpoint")
    if not set(map(len, edges)) <= {2}:
        bad = next(e for e in edges if len(e) != 2)
        raise TypeError(f"graph edge must be a pair of endpoints, got {list(bad)}")
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) out of range for order {order}")
        canon.add((u, v) if u < v else (v, u))
    return tuple(sorted(canon))


def _trusted_graph(order: int, edges: list[Edge]) -> Graph:
    """Graph from unique (u, v) pairs with 0 <= u < v < order, sorted in place.

    Skips the per-edge checks of Graph.__init__, which stays the path for
    edges from outside (JSON, CLI specs, user code). The family generators
    and the products use it: they emit unique canonical edges by
    construction, and tests/test_graph.py and tests/test_products.py check
    each against Graph.__init__.
    """
    edges.sort()
    g = Graph.__new__(Graph)
    g.order = order
    g.edges = tuple(edges)
    g.names = None
    return g


def check_shape(order: int, size: int, what: str = "graph") -> None:
    """Refuse a graph over MAX_ORDER or MAX_SIZE before any edge is built."""
    if order > MAX_ORDER:
        raise ValueError(f"{what} order {order} exceeds the supported bound {MAX_ORDER}")
    if size > MAX_SIZE:
        raise ValueError(f"{what} size {size} exceeds the supported bound {MAX_SIZE}")


class Record:
    """Base of the immutable value classes. A subclass lists its fields in __slots__,
    in constructor order, and sets them in __init__ with object.__setattr__. Equality,
    hash, the dataclass repr, pickle and copy go by those fields; none can be reassigned."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)  # a tuple: every subclass has 2+ fields

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._fields(self) == self._fields(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)


def exact_int(value: object, what: str) -> int:
    """``value`` when it is an exact int, else TypeError naming ``what``.

    The objects that take integers from callers (Graph, Labeling, the
    search's Budget and DiffWindow) and the recipe reader use it, since
    int() would truncate 3.9 and read "3", 3.0 and true as integers.
    """
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """A label sequence as a tuple, each entry checked by exact_int."""
    try:
        values = tuple(values)
    except TypeError:
        raise TypeError(f"labels must be a list of integers, got {values!r}") from None
    if not set(map(type, values)) <= {int}:  # one pass in C when all are ints
        for x in values:
            exact_int(x, what)
    return values


def adjacency(g: Graph) -> list[list[int]]:
    """Neighbor lists indexed by vertex, each sorted ascending.

    No sort is needed: g.edges is sorted with u < v in every pair, as both
    Graph.__init__ and _trusted_graph leave it. So w's neighbours below w
    (from the pairs (u, w)) arrive first and ascending, and those above w
    (from the pairs (w, v)) follow, also ascending.
    """
    adj: list[list[int]] = [[] for _ in range(g.order)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def make_path(n: int) -> Graph:
    """Path on n vertices: edges v1v2, v2v3, ..."""
    if n < 1:
        raise ValueError(f"path order must be >= 1, got {n}")
    check_shape(n, n - 1)
    return _trusted_graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    """Cycle on n vertices; requires n >= 3."""
    if n < 3:
        raise ValueError(f"cycle order must be >= 3, got {n}")
    check_shape(n, n)
    # the wrap-around edge v1vn is (0, n-1), second in sorted order
    return _trusted_graph(n, [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)])


def make_complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError(f"complete-graph order must be >= 1, got {n}")
    check_shape(n, n * (n - 1) // 2)
    return _trusted_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_star(n: int) -> Graph:
    """Star of order n: center v1 (index 0) joined to the n-1 leaves."""
    if n < 1:
        raise ValueError(f"star order must be >= 1, got {n}")
    check_shape(n, n - 1)
    return _trusted_graph(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True iff g has exactly one connected component (BFS from vertex 0)."""
    adj = adjacency(g)
    seen = [False] * g.order
    seen[0] = True
    queue = [0]
    while queue:
        nxt: list[int] = []
        for u in queue:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    nxt.append(w)
        queue = nxt
    return all(seen)


def bipartition(g: Graph) -> tuple[int, ...] | None:
    """A 2-coloring of g, side 1 or 2 per vertex, or None iff g has an odd cycle.

    Each component is colored from its lowest vertex, which gets side 1;
    every edge joins side 1 to side 2.
    """
    adj = adjacency(g)
    color = [0] * g.order  # 0 = not yet colored
    for start in range(g.order):
        if color[start]:
            continue
        color[start] = 1
        queue = [start]
        while queue:
            nxt: list[int] = []
            for u in queue:
                for w in adj[u]:
                    if color[w] == 0:
                        color[w] = 3 - color[u]
                        nxt.append(w)
                    elif color[w] == color[u]:
                        return None
            queue = nxt
    return tuple(color)


def has_odd_cycle(g: Graph) -> bool:
    """True iff some component of g is not 2-colorable."""
    return bipartition(g) is None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    """The graph as a dict; the CLI writes it with graph_json_pieces instead."""
    obj: dict = {"order": g.order, "edges": [[u, v] for u, v in g.edges]}
    if g.names is not None:
        obj["names"] = list(g.names)
    return obj


def graph_from_json(obj: dict) -> Graph:
    """Read the {"order", "edges", "names"} format; extra keys are ignored.

    Graph checks the order and endpoints (exact ints only, see exact_int);
    edges as graph_to_json writes them are taken after one pass.
    """
    try:
        order = obj["order"]
        edges = obj["edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"graph JSON needs 'order' and 'edges': {exc}") from exc
    try:
        return Graph(order, edges, obj.get("names"))
    except TypeError as exc:  # a non-int order or endpoint, non-list edges or names
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def graph_json_pieces(g: Graph, extra: dict | None = None) -> Iterator[str]:
    """The text of json.dumps(graph_to_json(g) | extra), in pieces.

    Edges are read straight from g.edges, JSON_CHUNK to a piece, so neither
    a list per edge nor a string for the whole document is built: near
    MAX_SIZE each of those would take more memory than the edge tuple itself.
    Endpoints and the order are exact ints, which f-strings write as json
    does; names and the values of ``extra`` go through json.
    """
    edges = g.edges
    yield f'{{"order": {g.order}, "edges": ['
    for i in range(0, len(edges), JSON_CHUNK):
        piece = ", ".join([f"[{u}, {v}]" for u, v in edges[i : i + JSON_CHUNK]])
        yield ", " + piece if i else piece
    tail = "]"
    if g.names is not None:
        tail += f', "names": {json.dumps(g.names)}'
    for key, value in (extra or {}).items():
        tail += f", {json.dumps(key)}: {json.dumps(value)}"
    yield tail + "}"


def graph_dumps(g: Graph) -> str:
    return "".join(graph_json_pieces(g))


def graph_loads(text: str) -> Graph:
    return graph_from_json(json.loads(text))


def _dot_quoted(text: str) -> str:
    """text as the inside of a DOT double-quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def graph_to_dot(
    g: Graph,
    vertex_labels: Sequence[int] | None = None,
    edge_labels: dict[Edge, int] | None = None,
) -> str:
    """DOT text for visualization.

    When edge_labels maps canonical edges to 0/1, edges are colored by the
    induced label (1 = royalblue, 0 = crimson) so a verification report can
    be eyeballed. Vertex names are escaped (backslash, quote, newline).
    """
    lines = ["graph G {"]
    for v in range(g.order):
        name = _dot_quoted(g.names[v]) if g.names is not None else f"v{v + 1}"
        if vertex_labels is not None:
            lines.append(f'  {v} [label="{name}:{vertex_labels[v]}"];')
        else:
            lines.append(f'  {v} [label="{name}"];')
    for u, v in g.edges:
        if edge_labels is not None:
            lab = edge_labels[(u, v)]
            color = "royalblue" if lab == 1 else "crimson"
            lines.append(f'  {u} -- {v} [color={color}, label={lab}];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
