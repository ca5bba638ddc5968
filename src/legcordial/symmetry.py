"""The exact symmetry reductions that the search engine walks its tree under.

search._Engine passes each search position's neighbourhood bitmask over
positions, ``pn``, and degree, ``dp``. A reduction's bounds are ``(above,
top, q, leaf weight, twins)``: position k's label must exceed position
above[k]'s (-1: none) and stay below top[k]; labels of one class are q
apart (n + 1: a class per label); a count-all leaf stands for leaf weight
labelings, times a factor at each (position, run offset) in twins.

First, residue classes and twin runs. An edge's induced label depends only
on (f(u) + f(v)) mod p, so two unused labels of one residue class mod p
lead to isomorphic subtrees; at p >= n each label is a class of its own.
Each node therefore expands only the smallest unused label of each class.
Outcomes, counts and first witnesses are those of the full search, because
the first witness in search order always uses the smallest unused label of
its class. Vertices u and v are twins when N(u) - {v} = N(v) - {u};
swapping them is an automorphism. Consecutive positions that are twins
form a run, and labels must increase along it; the first witness already
does, since swapping twins keeps d. In count-all each leaf, its weight
computed there from its labels, stands for prod m_r! labelings (m_r labels
in 1..n of class r) times R! / prod(k_r!) for each run of length R holding
k_r labels of class r, every order of the run's classes.

Second, the stabilizer chain, exact at every p: labels 1..n are distinct
integers, so Aut(G) acts freely on labelings. Take the labels L in
search-position order. A non-identity automorphism s is decided at the
first position a it moves, where L(a) != L(s(a)). So L is the lex-least
labeling of its orbit exactly when L(a) < L(b) for every position a and
every other b in O_a, the orbit of a under the automorphisms that fix
positions 0..a-1 (Puget, "Breaking symmetries in all different problems",
IJCAI 2005). The chain's orbits are computed once per graph, without
listing the group, and position b's candidates start above the label of
the largest a whose orbit holds b; every unused label is a candidate. The
first witness in search order is lex-least, so it survives. Count-all
weighs every leaf by |Aut(G)| = prod |O_a|. The chain holds every twin
swap, so runs are not used with it, and each label is a class of its own.

One rule, at every p, chooses between them: the chain when |Aut(G)|
exceeds T = prod m_r! * prod R!, the most residue classes and twin runs
cut (m_r labels of class r, 1 at p >= n; runs of length R). ``start``
computes T, and ``purchase`` applies the rule. The chain's set-up stops
after CHAIN_CALL_CAP automorphism-extension steps, or at the deadline, and
then the engine keeps residue classes and twin runs.

Both reductions also cap each position's label, and a larger label would
leave no leaf below it: L(a) <= n - |O_a| + 1 under the chain, since the
rest of O_a needs larger labels, and L <= n - (R - t) at offset t of a
twin run of length R.
"""

from __future__ import annotations

import math
import time
from collections import Counter

# _map_extension calls allowed in one _stabilizer_chain run; at the cap the
# engine drops the chain and searches without it
CHAIN_CALL_CAP = 10_000
CHAIN_POLL = 256  # _map_extension calls between two reads of the clock


def start(pn: list[int], dp: list[int], p: int) -> tuple[tuple, int]:
    """The bounds of residue classes and twin runs at prime ``p``, and T."""
    n = len(pn)
    # run[k]: k's offset in its run of twins, 1 when k is in none
    above, run = [-1] * n, [1] * n
    for k in range(1, n):
        if dp[k] == dp[k - 1] and pn[k] & ~(1 << (k - 1)) == pn[k - 1] & ~(1 << k):
            above[k], run[k] = k - 1, run[k - 1] + 1
    top = [n + 1] * n
    for k in range(n - 2, -1, -1):
        if run[k + 1] > 1:  # k + 1 continues k's run
            top[k] = top[k + 1] - 1
    q = min(p, n + 1)
    leaf_weight = _class_orders(n, q)
    twins = [(k, t) for k, t in enumerate(run) if t > 1]
    return (above, top, q, leaf_weight, twins), leaf_weight * math.prod(run)  # prod R!


def purchase(pn: list[int], dp: list[int], cut: int, deadline: float | None) -> tuple | None:
    """The stabilizer chain's bounds when it cuts more than ``cut`` = T,
    else None. Automorphisms keep degree and _invariant, so B = prod (cell
    size)! over the cells of equal (degree, _invariant) bounds |Aut(G)|,
    and the chain is built only when B > T."""
    n = len(pn)
    inv = [_invariant(pn, dp, k) for k in range(n)]
    if math.prod(map(math.factorial, Counter(zip(dp, inv)).values())) <= cut:
        return None
    chain = _stabilizer_chain(pn, dp, inv, deadline)
    if chain is None or math.prod(chain[1]) <= cut:
        return None
    above, sizes = chain
    return above, [n + 2 - size for size in sizes], n + 1, math.prod(sizes), []


class _ChainCapped(Exception):
    pass


def _map_extension(
    pn: list[int], deg: list[int], img: list[int], dom: int, used: int, left: list[int],
    deadline: float | None,
) -> list[int] | None:
    """Extend a partial map of positions to an automorphism, or return None.

    ``img[x]`` is the image of each x in the bitmask ``dom``, ``used`` is the
    mask of those images, and the mapped pairs already agree on adjacency.
    The next position mapped is the unmapped one with the most mapped
    neighbours, so a dead end shows early. ``left[0]`` is the number of
    calls still allowed; past it, or once the clock, read every CHAIN_POLL
    calls, has passed ``deadline``, _ChainCapped is raised.
    """
    if not left[0]:
        raise _ChainCapped
    left[0] -= 1
    if deadline is not None and not left[0] % CHAIN_POLL and time.monotonic() > deadline:
        raise _ChainCapped
    n = len(pn)
    if dom == (1 << n) - 1:
        return img
    best = -1
    for x in range(n):
        if not dom >> x & 1:
            c = (pn[x] & dom).bit_count()
            if c > best:
                u, best = x, c
    want = 0  # the images of u's mapped neighbours
    m = pn[u] & dom
    while m:
        want |= 1 << img[(m & -m).bit_length() - 1]
        m &= m - 1
    du = deg[u]
    for w in range(n):
        if not used >> w & 1 and deg[w] == du and pn[w] & used == want:
            img[u] = w
            if _map_extension(pn, deg, img, dom | 1 << u, used | 1 << w, left, deadline):
                return img
    return None


def _invariant(pn: list[int], deg: list[int], k: int) -> int:
    """A number that every automorphism keeps at position k.

    Each neighbour j of k adds deg[j] * 4096 plus the number of neighbours
    j shares with k (any weight keeps the sum invariant; 4096 keeps the two
    parts apart), so two positions with different numbers lie in different
    orbits.
    """
    total, m = 0, pn[k]
    while m:
        j = (m & -m).bit_length() - 1
        total += deg[j] * 4096 + (pn[j] & pn[k]).bit_count()
        m &= m - 1
    return total


def _stabilizer_chain(
    pn: list[int], deg: list[int], inv: list[int], deadline: float | None = None
) -> tuple[list[int], list[int]] | None:
    """Stabilizer-chain orbits of Aut(G), acting on search positions.

    ``pn[k]`` is position k's neighbourhood bitmask, ``deg[k]`` its degree
    and ``inv[k]`` its _invariant; positions of equal degree are
    consecutive. O_a is the orbit of a under the automorphisms that fix
    positions 0..a-1. Returns ``(above, sizes)``: ``above[b]`` is the
    largest a < b with b in O_a, or -1, and ``sizes[a]`` is |O_a|, so
    |Aut(G)| = prod sizes. Levels run from the last position
    down, so every automorphism found so far fixes 0..a-1 and closes O_a
    without a search. Returns None once CHAIN_CALL_CAP calls of
    _map_extension have not sufficed, or once ``deadline`` has passed.
    """
    n = len(pn)
    if 2 * sum(deg) > n * (n - 1):
        # The complement has the same automorphisms, so inv still separates
        # orbits, and its sparser neighbourhoods make the search below
        # choose better.
        pn = [((1 << n) - 1) & ~m & ~(1 << k) for k, m in enumerate(pn)]
        deg = [n - 1 - d for d in deg]
    above = [-1] * n
    sizes = [1] * n
    gens: list[list[int]] = []
    left = [CHAIN_CALL_CAP]
    for a in range(n - 2, -1, -1):
        if deg[a + 1] != deg[a]:  # a's degree class is {a}: O_a = {a}
            continue
        fixed = (1 << a) - 1
        na, fixed_na = pn[a], pn[a] & fixed
        orbit, seen = [a], 1 << a
        for b in range(a + 1, n):
            if deg[b] != deg[a]:
                break
            if seen >> b & 1 or pn[b] & fixed != fixed_na:
                continue
            if na & ~(1 << b) == pn[b] & ~(1 << a):  # twins: swap them
                g = list(range(n))
                g[a], g[b] = b, a
            else:
                if inv[b] != inv[a]:
                    continue
                img = list(range(a)) + [-1] * (n - a)
                img[a] = b
                try:
                    g = _map_extension(
                        pn, deg, img, fixed | 1 << a, fixed | 1 << b, left, deadline
                    )
                except _ChainCapped:
                    return None
                if g is None:
                    continue
            gens.append(g)
            for x in orbit:  # the list grows as the orbit closes
                for h in gens:
                    y = h[x]
                    if not seen >> y & 1:
                        seen |= 1 << y
                        orbit.append(y)
        sizes[a] = len(orbit)
        for b in orbit[1:]:
            if above[b] < 0:
                above[b] = a
    return above, sizes


def _class_orders(n: int, q: int) -> int:
    """prod m_r! over the classes r mod q of the labels 1..n, m_r labels in
    class r: the labelings one leaf stands for under residue classes."""
    # n % q classes hold n // q + 1 labels, the other classes n // q
    return math.factorial(n // q + 1) ** (n % q) * math.factorial(n // q) ** (q - n % q)
