"""Independent brute-force oracles used to cross-check the package.

Everything here is computed from first principles (squares enumeration,
full permutation scans) without going through the package's table, tally,
or search code, so the two paths can validate each other.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial, prod


@lru_cache(maxsize=None)
def brute_residues(p: int) -> frozenset[int]:
    return frozenset((x * x) % p for x in range(1, p))


def brute_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in brute_residues(p) else -1


def brute_edge_label(total: int, p: int) -> int:
    return 1 if brute_symbol(total, p) == 1 else 0


def brute_tally(edges, assign, p: int) -> tuple[int, int]:
    """(e0, e1) for an assignment indexed by vertex."""
    e1 = sum(brute_edge_label(assign[u] + assign[v], p) for u, v in edges)
    return len(list(edges)) - e1, e1


def all_labelings(n: int):
    """Every bijection vertex -> 1..n, as tuples indexed by vertex."""
    return permutations(range(1, n + 1))


def brute_cordial_count(edges, n: int, p: int) -> int:
    edges = list(edges)
    count = 0
    for assign in all_labelings(n):
        e0, e1 = brute_tally(edges, assign, p)
        if abs(e0 - e1) <= 1:
            count += 1
    return count


def brute_diff_witnesses(edges, n: int, p: int) -> dict[int, list[tuple[int, ...]]]:
    """Map each achievable e1 - e0 to every witness assignment."""
    edges = list(edges)
    out: dict[int, list[tuple[int, ...]]] = {}
    for assign in all_labelings(n):
        e0, e1 = brute_tally(edges, assign, p)
        out.setdefault(e1 - e0, []).append(tuple(assign))
    return out


def brute_has_cordial(edges, n: int, p: int) -> bool:
    edges = list(edges)
    for assign in all_labelings(n):
        e0, e1 = brute_tally(edges, assign, p)
        if abs(e0 - e1) <= 1:
            return True
    return False


def residue_dp_counts(edges, n: int, p: int) -> dict[int, int]:
    """Map each achievable e1 - e0 to its number of labelings, for orders
    that brute force cannot reach; no labeling is listed.

    An edge's label depends only on (f(u) + f(v)) mod p, so e1 - e0 depends
    only on the residue map c = f mod p, and each c with |c^-1(r)| = m_r
    (the m_r labels of 1..n in class r) stands for prod m_r! labelings. A
    transfer-matrix DP counts those maps: it places vertices 0..n-1 in turn,
    and a state is (labels used per class, the residues of the frontier,
    e1 - e0 so far), the frontier being the placed vertices that still have
    a neighbour to place.
    """
    sizes = [0] * p
    for x in range(1, n + 1):
        sizes[x % p] += 1
    sign = [1 if brute_symbol(s, p) == 1 else -1 for s in range(2 * p)]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    last_nbr = [max(nb, default=-1) for nb in nbrs]
    frontier: list[int] = []
    states = {((0,) * p, (), 0): 1}
    for v in range(n):
        earlier = [frontier.index(u) for u in nbrs[v] if u < v]
        placed = frontier + [v]
        keep = [i for i, u in enumerate(placed) if last_nbr[u] > v]
        after: dict[tuple, int] = {}
        for (used, res, d), ways in states.items():
            for r in range(p):
                if used[r] < sizes[r]:
                    res_v = res + (r,)
                    key = (
                        used[:r] + (used[r] + 1,) + used[r + 1:],
                        tuple(res_v[i] for i in keep),
                        d + sum(sign[res[i] + r] for i in earlier),
                    )
                    after[key] = after.get(key, 0) + ways
        states, frontier = after, [placed[i] for i in keep]
    labelings_per_map = prod(factorial(m) for m in sizes)
    out: dict[int, int] = {}
    for (_, _, d), ways in states.items():
        out[d] = out.get(d, 0) + ways * labelings_per_map
    return out
