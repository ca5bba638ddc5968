"""Write every connected graph of order 2..6, one per isomorphism class.

Run from the repository root:

    python tests/connected_graphs.py > tests/connected_graphs.txt

An optional argument raises the maximum order: ``python
tests/connected_graphs.py 7`` also writes the 853 graphs of order 7.

Each output line is a graph's order and its edge bitmask: bit k is set when
the k-th pair of (0, 1), (0, 2), ..., (0, n-1), (1, 2), ..., (n-2, n-1) is
an edge. A class is written as its least bitmask over all vertex
relabelings, and lines are sorted by order, then bitmask.

Every connected graph of order n has a vertex whose removal leaves it
connected (a leaf of a spanning tree), so the graphs of order n are those
of order n - 1 plus one vertex joined to a nonempty subset of them.
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations

MAX_ORDER = 6


def pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs of order n, in bitmask order."""
    return list(combinations(range(n), 2))


def edges_of(n: int, mask: int) -> list[tuple[int, int]]:
    return [e for k, e in enumerate(pairs(n)) if mask >> k & 1]


def canonical(n: int, edges: list[tuple[int, int]]) -> int:
    """The least bitmask of the graph over all vertex relabelings."""
    bit = {}
    for k, (u, v) in enumerate(pairs(n)):
        bit[u, v] = bit[v, u] = 1 << k
    return min(sum(bit[perm[u], perm[v]] for u, v in edges) for perm in permutations(range(n)))


def connected_graphs(max_order: int = MAX_ORDER) -> dict[int, list[int]]:
    """order -> the sorted canonical bitmasks of its connected graphs."""
    out = {1: [0]}
    for n in range(2, max_order + 1):
        grown = set()
        for mask in out[n - 1]:
            edges = edges_of(n - 1, mask)
            for nbrs in range(1, 1 << (n - 1)):
                new = [(v, n - 1) for v in range(n - 1) if nbrs >> v & 1]
                grown.add(canonical(n, edges + new))
        out[n] = sorted(grown)
    return out


def main(max_order: int = MAX_ORDER) -> None:
    for n, masks in connected_graphs(max_order).items():
        if n >= 2:
            for mask in masks:
                print(n, mask)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else MAX_ORDER)
