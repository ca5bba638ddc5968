"""Binary graph operations: join, corona, and the lexicographic, cartesian,
tensor, and strong products.

Vertex indexing is fixed so that labelings can be assigned positionally:

* four product-set operations -- factor pair (i, j), i from g1 and j from
  g2, maps to composite index i * g2.order + j;
* join -- g1's vertices keep their indices, g2's follow at offset g1.order;
* corona -- copy i of g2 (0-based) occupies the block i * g2.order ..
  (i+1) * g2.order - 1 and the g1.order host vertices come last, host i at
  g1.order * g2.order + i, so hosts end up with the top label block in the
  corona constructions.

Label layout: a construction labels a pair-indexed composite (a product, or
a corona's copies) by outer sum. pair_labels(first, second) gives pair
(i, j) -- in a corona, vertex j of copy i -- the label first[i] + second[j].
With first a base labeling and second the column shifts, each column
repeats the labeling shifted; with first the block shifts and second a base
labeling, each block does. The shifts are multiples of p.

All six operations are pure functions over immutable inputs.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graph import Edge, Graph, _trusted_graph, check_shape


def pair_labels(first: Sequence[int], second: Sequence[int]) -> list[int]:
    """Labels in composite index order: pair (i, j) -- in a corona, vertex j
    of copy i -- sits at index i * len(second) + j and gets first[i] + second[j]."""
    return [a + b for a in first for b in second]


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of g1 and g2 plus every cross edge."""
    n1, n2 = g1.order, g2.order
    check_shape(n1 + n2, g1.size + g2.size + n1 * n2, "composite")
    edges: list[Edge] = list(g1.edges)
    edges.extend((u + n1, v + n1) for u, v in g2.edges)
    edges.extend((u, v + n1) for u in range(n1) for v in range(n2))
    return _trusted_graph(n1 + n2, edges)


def corona(g1: Graph, g2: Graph) -> Graph:
    """One copy of g1 and g1.order copies of g2; host i adjacent to all of copy i."""
    n, s = g1.order, g2.order
    check_shape(n * s + n, g1.size + n * g2.size + n * s, "composite")
    edges: list[Edge] = []
    for i in range(n):
        base = i * s
        edges.extend((base + u, base + v) for u, v in g2.edges)
        host = n * s + i
        edges.extend((base + j, host) for j in range(s))  # hosts come last, so host > base + j
    edges.extend((n * s + u, n * s + v) for u, v in g1.edges)
    return _trusted_graph(n * s + n, edges)


# The edge builders below write pair (i, j) at index i * n2 + j, row by row.

def _copy_edges(n1: int, g2: Graph) -> list[Edge]:
    """g2's edges inside each of the n1 rows (i, *)."""
    n2 = g2.order
    return [(i * n2 + u, i * n2 + v) for i in range(n1) for u, v in g2.edges]


def _cartesian_edges(g1: Graph, g2: Graph) -> list[Edge]:
    n2 = g2.order
    edges = _copy_edges(g1.order, g2)
    for a, b in g1.edges:
        ra, rb = a * n2, b * n2
        edges.extend((ra + j, rb + j) for j in range(n2))
    return edges


def _tensor_edges(g1: Graph, g2: Graph) -> list[Edge]:
    n2 = g2.order
    edges: list[Edge] = []
    for a, b in g1.edges:
        ra, rb = a * n2, b * n2
        for x, y in g2.edges:
            edges.append((ra + x, rb + y))
            edges.append((ra + y, rb + x))
    return edges


def lexicographic(g1: Graph, g2: Graph) -> Graph:
    """(v1,u1)(v2,u2) is an edge iff v1v2 in E(g1), or v1 = v2 and u1u2 in E(g2)."""
    n1, n2 = g1.order, g2.order
    check_shape(n1 * n2, g1.size * n2 * n2 + n1 * g2.size, "composite")
    edges = _copy_edges(n1, g2)
    for a, b in g1.edges:
        ra, rb = a * n2, b * n2
        edges.extend((ra + u, rb + v) for u in range(n2) for v in range(n2))
    return _trusted_graph(n1 * n2, edges)


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """(v1,u1)(v2,u2) is an edge iff one coordinate is fixed and the other moves along a factor edge."""
    n1, n2 = g1.order, g2.order
    check_shape(n1 * n2, n1 * g2.size + n2 * g1.size, "composite")
    return _trusted_graph(n1 * n2, _cartesian_edges(g1, g2))


def tensor(g1: Graph, g2: Graph) -> Graph:
    """(v1,u1)(v2,u2) is an edge iff both coordinates move along factor edges.

    When both factors are connected with at least one edge each and one of
    them contains an odd cycle, the product is connected (a one-vertex
    factor yields an edgeless, disconnected product);
    tests/test_products.py checks that condition.
    """
    n1, n2 = g1.order, g2.order
    check_shape(n1 * n2, 2 * g1.size * g2.size, "composite")
    return _trusted_graph(n1 * n2, _tensor_edges(g1, g2))


def strong(g1: Graph, g2: Graph) -> Graph:
    """Union of the cartesian and tensor edge sets on the same vertex indexing.

    The two sets are disjoint: a cartesian edge keeps one coordinate fixed,
    a tensor edge moves both.
    """
    n1, n2 = g1.order, g2.order
    e1, e2 = g1.size, g2.size
    check_shape(n1 * n2, n1 * e2 + n2 * e1 + 2 * e1 * e2, "composite")
    edges = _cartesian_edges(g1, g2)
    edges.extend(_tensor_edges(g1, g2))
    return _trusted_graph(n1 * n2, edges)
