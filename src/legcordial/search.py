"""Exhaustive / backtracking oracle over vertex labelings.

The engine assigns labels in vertex order of decreasing degree (ties broken
by index) and tries candidate labels ascending, so results are deterministic
for a fixed spec. All objectives are integer windows on the rho-minus-eta
statistic d = e1 - e0: cordiality is d in [-1, 1], a target difference is
[d, d], a target window is [d-1, d+1]. A partial assignment is pruned
exactly when even labeling every undecided edge uniformly 0 or uniformly 1
cannot bring d into the window, which keeps pruning sound for counting and
non-existence proofs, not just satisfiability.

Two exact reductions shrink the tree; an engine uses one of them. First,
residue classes and twin runs. An edge's induced label depends only on
(f(u) + f(v)) mod p, so two unused labels of one residue class mod p lead
to isomorphic subtrees; at p >= n each label is a class of its own. Each
node therefore expands only the smallest unused label of each class.
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
IJCAI 2005). The engine computes these orbits once per graph, without
listing the group, and starts position b's candidates above the label of
the largest a whose orbit holds b; every unused label is a candidate. The
first witness in search order is lex-least, so it survives. Count-all
weighs every leaf by |Aut(G)| = prod |O_a|. The chain holds every twin
swap, so runs are not used with it, and each label is a class of its own.

One rule, at every p, chooses between them: the chain when |Aut(G)|
exceeds T = prod m_r! * prod R!, the most residue classes and twin runs
cut (m_r labels of class r, 1 at p >= n; runs of length R). The engine
computes T when it is built, and _Engine._buy_chain applies the rule. The
chain's set-up stops after CHAIN_CALL_CAP automorphism-extension steps, or
at the deadline, and an engine that keeps no chain uses residue classes
and twin runs. Every engine starts under them. One with T >= n! never
chooses, since no chain can cut more; any other rents nodes under them,
counted over its runs, before it chooses (ski rental; Karlin, Manasse,
Rudolph and Sleator, "Competitive snoopy caching", Algorithmica 1988): 0
in count-all, which visits the whole tree, and CHAIN_AFTER in find-first,
which stops at its first witness, mostly too soon for the set-up to pay
(prove-none is find-first, its "none" the certificate). Once the rent is
spent, _Probes.run buys and starts the run that spent it over, so every
run searches under one rule.

Both reductions also cap each position's label, once per engine, and a
larger label would leave no leaf below it: L(a) <= n - |O_a| + 1 under the
chain, since the rest of O_a needs larger labels, and L <= n - (R - t) at
offset t of a twin run of length R. The last position's label, the one
left unused, is not scanned for: the position before it reads it off and
settles the leaf.

Also, d always has the parity of the graph's size, so the window is
narrowed to that parity before the engine is built; an empty window is a
certified "none" after 0 nodes.

Budgets count assignment-tree nodes (each candidate label tried at a vertex:
only class representatives under residue classes, and only labels above the
bound of the chain or the twin run and below the position's ceiling; the
last position's one label is a node when it is above its bound), an
abandoned run's included, so runs are reproducible; the reported node
count never exceeds the node budget. An optional wall-clock limit is a
secondary kill switch; it starts when the call starts, so it covers engine
set-up in every entry point, the stabilizer chain's included. A
budget-exhausted run is a distinct outcome, never conflated with a
completed proof of non-existence.

Each entry point drives one _Probes, which holds the budget and buys the
chain: `search_labeling` makes one run, and `achievable_differences` and
`find_base_labelings` a sequence of find-first window runs (probes). A
window prunes only subtrees with no leaf inside it, so the probe [d, d]
finds the first labeling in search order with difference d.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from .constructors import (
    BASE_LABELINGS,
    BalanceForm,
    ConstructionRecipe,
    balance_form,
    normalize_theorem,
)
from .graph import Graph, Record, exact_int
from .numtheory import check_prime

DEFAULT_ORDER_CEILING = 64
DEFAULT_NODE_BUDGET = 2_000_000
# _map_extension calls allowed in one _stabilizer_chain run; at the cap the
# engine drops the chain and searches without it
CHAIN_CALL_CAP = 10_000
CHAIN_POLL = 256  # _map_extension calls between two reads of the clock
# find-first nodes an engine rents, over its runs, before it buys the chain
CHAIN_AFTER = 256

MODES = ("find-first", "count-all", "prove-none")


class Budget(Record):
    __slots__ = ("max_nodes", "max_seconds")

    def __init__(self, max_nodes: int = DEFAULT_NODE_BUDGET, max_seconds: float | None = None):
        if exact_int(max_nodes, "node budget") <= 0:
            raise ValueError("node budget must be positive")
        if max_seconds is not None and type(max_seconds) not in (int, float):  # bool too
            raise TypeError(f"time budget must be an int or a float, got {max_seconds!r}")
        if max_seconds is not None and not max_seconds > 0:  # nan too
            raise ValueError("time budget must be positive")
        object.__setattr__(self, "max_nodes", max_nodes)
        object.__setattr__(self, "max_seconds", max_seconds)


class DiffWindow(Record):
    """Objective window on d = |rho| - |eta| = e1 - e0."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):  # the parity narrowing is exact only on ints
        object.__setattr__(self, "lo", exact_int(lo, "window bound"))
        object.__setattr__(self, "hi", exact_int(hi, "window bound"))

    @staticmethod
    def cordial() -> "DiffWindow":
        return DiffWindow(-1, 1)

    @staticmethod
    def exact(d: int) -> "DiffWindow":
        return DiffWindow(d, d)

    @staticmethod
    def around(d: int) -> "DiffWindow":
        return DiffWindow(d - 1, d + 1)


class SearchSpec(Record):
    __slots__ = ("graph", "p", "objective", "budget", "mode")

    def __init__(self, graph: Graph, p: int, objective: DiffWindow = DiffWindow.cordial(),
                 budget: Budget = Budget(), mode: str = "find-first"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        for name, value, kind in (("graph", graph, Graph), ("objective", objective, DiffWindow)):
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        if budget is not None and not isinstance(budget, Budget):  # None: the default budget
            raise TypeError(f"budget must be a Budget or None, got {type(budget).__name__}")
        _check_ceiling(graph)
        check_prime(p)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "mode", mode)


def _check_ceiling(graph: Graph) -> None:
    if graph.order > DEFAULT_ORDER_CEILING:
        raise ValueError(
            f"graph order {graph.order} exceeds the search ceiling {DEFAULT_ORDER_CEILING}"
        )


def _parity_window(graph: Graph, lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi] narrowed to the parity of the graph's size, which d always has;
    lo > hi when no d fits."""
    parity = graph.size % 2
    return lo + (lo - parity) % 2, hi - (hi - parity) % 2


class SearchResult(Record):
    """``complete`` is derived: True after a count-all run to the end or a certified "none"."""

    __slots__ = ("outcome", "nodes", "labeling", "count")

    def __init__(self, outcome: str, nodes: int, labeling: tuple[int, ...] | None = None,
                 count: int | None = None):
        object.__setattr__(self, "outcome", outcome)  # "found" | "none" | "exhausted"
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "count", count)

    @property
    def complete(self) -> bool:
        return self.count is not None or self.outcome == "none"

    def to_json(self) -> dict:
        obj: dict = {"outcome": self.outcome, "nodes": self.nodes}
        if self.labeling is not None:
            obj["labeling"] = list(self.labeling)
        if self.count is not None:
            obj["count"] = self.count
        return obj


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


class _Engine:
    """Shared backtracking core; one instance per (graph, prime, count-all
    or not). Each entry point checks the prime before _Probes builds an
    engine: SearchSpec, balance_form or achievable_differences itself."""

    def __init__(
        self, graph: Graph, p: int, count_all: bool = False, deadline: float | None = None
    ):
        """Every engine starts under residue classes and twin runs, computes
        T, the most they cut (see the module docstring), and builds no
        chain. ``chain_in`` is the rent, the nodes left before _Probes.run
        has _buy_chain choose: None at T >= n!, where no chain cuts more; 0
        in count-all, which visits the whole pruned tree and so chooses
        before its first run; CHAIN_AFTER otherwise. ``deadline`` holds for
        the chain's set-up, past which the engine goes without it, and for
        every run."""
        self.stop_at_first = not count_all
        self.deadline = deadline
        n = graph.order
        deg = [0] * n
        for u, v in graph.edges:
            deg[u] += 1
            deg[v] += 1
        self.graph = graph
        # decreasing degree; the sort is stable, so ties stay in index order
        self.order = sorted(range(n), key=deg.__getitem__, reverse=True)
        self.pos = pos = [0] * n  # each vertex's search position
        for k, v in enumerate(self.order):
            pos[v] = k
        prev: list[list[int]] = [[] for _ in range(n)]
        pn = [0] * n  # neighbourhood bitmasks over positions
        for u, v in graph.edges:
            ku, kv = pos[u], pos[v]
            if ku > kv:
                ku, kv = kv, ku
            pn[ku] |= 1 << kv
            pn[kv] |= 1 << ku
            prev[kv].append(ku)
        dp = [deg[v] for v in self.order]
        # above[k]: the earlier position whose label k's must exceed, or -1.
        # run[k]: k's offset in its run of twins, 1 when k is not in a run.
        # top[k]: k's label ceiling plus 1 (see the module docstring).
        # q: the step between labels of one class; n + 1 puts each label in
        # a class of its own.
        # Twins u, v (N(u) - {v} = N(v) - {u}) at consecutive positions form
        # a run, and labels increase along it.
        above, run = [-1] * n, [1] * n
        for k in range(1, n):
            if dp[k] == dp[k - 1] and pn[k] & ~(1 << (k - 1)) == pn[k - 1] & ~(1 << k):
                above[k], run[k] = k - 1, run[k - 1] + 1
        top = [n + 1] * n
        for k in range(n - 2, -1, -1):
            if run[k + 1] > 1:  # k + 1 continues k's run
                top[k] = top[k + 1] - 1
        self.q = min(p, n + 1)
        # Each class's labels are placed smallest first, so a leaf stands for
        # every order of each class's labels: prod m_r!; |Aut(G)| under the chain.
        self.leaf_weight = _class_orders(n, self.q)
        self.twins = [(k, t) for k, t in enumerate(run) if t > 1]  # (position, run offset)
        # steps[k] = (earlier neighbours of position k, edges still undecided
        # once k is labeled, above[k], top[k])
        self.steps: list[tuple[list[int], int, int, int]] = []
        remaining = graph.size
        for k in range(n):
            remaining -= len(prev[k])
            self.steps.append((prev[k], remaining, above[k], top[k]))
        # for _buy_chain: T, where a run's offsets 1..R multiply out to R!
        self.pn, self.dp, self.cut = pn, dp, self.leaf_weight * math.prod(run)
        self.chain_in = None if self.cut >= math.factorial(n) else 0 if count_all else CHAIN_AFTER
        # what an edge adds to d for every endpoint sum 0..2n: +1 when s mod p
        # is a quadratic residue (edge_label 1), by Euler's criterion, else -1;
        # 2n + 1 pow calls whatever p is, not a table of p residues
        half = (p - 1) // 2
        self.sum_label = [1 if pow(s % p, half, p) == 1 else -1 for s in range(2 * n + 1)]

    def run(
        self, lo: int, hi: int, max_nodes: int
    ) -> tuple[int, int, tuple[int, ...] | None, bool]:
        """Explore the assignment tree under the engine's one reduction;
        returns (nodes, count, first witness, whether ``max_nodes`` or the
        deadline ran out).

        One loop walks the tree over depth k. Bit lab of ``avail`` is set
        when lab is the smallest unused label of its residue class; ``m``
        holds k's candidates left, the bits of ``avail`` in (labels[above],
        top), lowest first; ``diff`` is d before k. A step down saves the
        three at k, a step back up restores them. Position n - 2 settles
        each leaf: once its candidate passes the window test, the one label
        left is the single bit of the child's mask, a node when above its
        bound. Order 1 has no position n - 2; its one position is its leaf.
        """
        n = self.graph.order
        last, penult = n - 1, n - 2
        labels = [0] * (n + 1)  # labels[-1] stays 0: "above" -1 bounds nothing
        ms, diffs, avails = [0] * n, [0] * n, [0] * n
        # lab + q is lab's class successor; q <= n + 1 keeps each mask below
        # bit 2n + 2, and & full drops the successors past n.
        q = self.q
        full = (1 << n + 1) - 2  # labels 1..n
        leaf_weight, twins = self.leaf_weight, self.twins
        stop_at_first, deadline = self.stop_at_first, self.deadline
        nodes, count, witness = 0, 0, None
        # one checkpoint test per node; past it, the run stops at the node
        # budget, and under a deadline polls the clock every 4096 nodes
        checkpoint = max_nodes if deadline is None else 0
        steps, sum_label = self.steps, self.sum_label
        leaf_prev, _, leaf_above, _ = steps[last]
        k, diff, avail = 0, 0, full & (1 << q + 1) - 2
        prev_k, rem, above, top = steps[0]
        # the labels labels[above] + 1 .. top - 1; labels[above] < top, since
        # a chain orbit or a twin run bounds both
        m = avail & (1 << top) - (2 << labels[above])
        while True:
            if not m:
                if not k:
                    return nodes, count, witness, False
                k -= 1
                m, diff, avail = ms[k], diffs[k], avails[k]
                prev_k, rem, _, _ = steps[k]
                continue
            low = m & -m
            m ^= low
            lab = low.bit_length() - 1
            if nodes >= checkpoint:
                # short of max_nodes only under a deadline
                if nodes >= max_nodes or time.monotonic() > deadline:
                    return nodes, count, witness, True
                checkpoint = min(nodes + 4096, max_nodes)
            nodes += 1
            d = diff
            for j in prev_k:
                d += sum_label[lab + labels[j]]
            if d - rem > hi or d + rem < lo:
                continue
            labels[k] = lab
            rest = (avail ^ low | low << q) & full
            if k < penult:
                ms[k], diffs[k], avails[k] = m, diff, avail
                k += 1
                diff, avail = d, rest
                prev_k, rem, above, top = steps[k]
                m = avail & (1 << top) - (2 << labels[above])
                continue
            if k == penult:
                # the leaf: the one label left
                lab = rest.bit_length() - 1
                if lab <= labels[leaf_above]:
                    continue
                if nodes >= checkpoint:
                    if nodes >= max_nodes or time.monotonic() > deadline:
                        return nodes, count, witness, True
                    checkpoint = min(nodes + 4096, max_nodes)
                nodes += 1
                for j in leaf_prev:
                    d += sum_label[lab + labels[j]]
                if d > hi or d < lo:
                    continue
                labels[last] = lab
            # rem is 0 at the leaf, so d is in [lo, hi]. t / m at offset t of a
            # run, m of whose first t labels share t's class, gives R! / prod(k_r!).
            w = leaf_weight
            for j, t in twins:
                r = labels[j] % q
                w = w * t // (1 + sum(1 for x in labels[j - t + 1:j] if x % q == r))
            count += w
            if witness is None:  # indexed by vertex
                witness = tuple(map(labels.__getitem__, self.pos))
            if stop_at_first:
                return nodes, count, witness, False

    def _buy_chain(self) -> None:
        """Choose the engine's reduction for good: the stabilizer chain when
        it cuts more than residue classes and twin runs, |Aut(G)| > T.
        Automorphisms keep degree and _invariant, so B = prod (cell size)!
        over the cells of equal (degree, _invariant) bounds |Aut(G)|; the
        chain is built only when B > T, and kept only when |Aut(G)| > T and
        its set-up stopped at neither the cap nor the deadline. A kept chain
        replaces twin runs and residue classes, and each step's bounds are
        rewritten in place. Labels are distinct, so Aut(G) acts freely and
        every leaf stands for |Aut(G)| labelings."""
        self.chain_in = None
        pn, deg, n = self.pn, self.dp, self.graph.order
        inv = [_invariant(pn, deg, k) for k in range(n)]
        if math.prod(map(math.factorial, Counter(zip(deg, inv)).values())) <= self.cut:
            return
        chain = _stabilizer_chain(pn, deg, inv, self.deadline)
        if chain is None or math.prod(chain[1]) <= self.cut:
            return
        above, sizes = chain
        self.leaf_weight = math.prod(sizes)
        self.q = n + 1
        self.twins = []
        steps = self.steps
        for k, (prev_k, rem, *_) in enumerate(steps):
            steps[k] = (prev_k, rem, above[k], n + 2 - sizes[k])


def search_labeling(spec: SearchSpec) -> SearchResult:
    """Run the oracle described by ``spec``; see the module docstring for semantics.

    find-first returns the first satisfying labeling in search order, or a
    completed-none certificate, or exhausted. count-all counts every
    satisfying permutation (and reports the first witness). prove-none runs
    find-first and returns its result: a completed "none" is the
    certificate, and a witness, if one exists, is reported as "found".
    """
    probes = _Probes(spec.p, spec.budget, spec.mode == "count-all")
    count, witness = probes.run(spec.graph, spec.objective.lo, spec.objective.hi)
    if not probes.complete:
        return SearchResult("exhausted", probes.nodes)
    outcome = "none" if witness is None else "found"
    return SearchResult(outcome, probes.nodes, witness, count if probes.count_all else None)


class _Probes:
    """Window runs, count-all or find-first, that share one node budget
    and one deadline. The deadline starts when the _Probes is built, so it
    covers building the engines.

    An engine is built at the first run on a graph and kept, and it alone
    ends a run on budget or time, before its first node when none is left.
    Then ``complete`` is False, and every later run finds nothing at no cost.
    ``run`` alone buys the chain, once the engine's rent (``chain_in``, 0
    from the start in count-all) is spent. A run gets at most the rent left,
    and one that stops at the rent with budget to spare starts over after
    the purchase; its nodes count in ``nodes``.
    """

    def __init__(self, p: int, budget: Budget | None, count_all: bool = False):
        if budget is not None and not isinstance(budget, Budget):
            raise TypeError(f"budget must be a Budget or None, got {type(budget).__name__}")
        budget = budget or Budget()
        self.p = p
        self.count_all = count_all
        self.max_nodes = budget.max_nodes
        self.deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
        self.nodes = 0
        self.complete = True
        self.engines: dict[int, _Engine] = {}  # by id() of the graph

    def run(self, graph: Graph, lo: int, hi: int) -> tuple[int, tuple[int, ...] | None]:
        """(count, first witness in search order or None) of the labelings
        of ``graph`` with d in [lo, hi]. Only count-all goes on past the
        witness, so only its count is the number of such labelings."""
        if not self.complete:
            return 0, None
        _check_ceiling(graph)  # also when the window below is empty
        lo, hi = _parity_window(graph, lo, hi)
        if lo > hi:
            return 0, None
        if id(graph) not in self.engines:
            self.engines[id(graph)] = _Engine(graph, self.p, self.count_all, self.deadline)
        engine = self.engines[id(graph)]
        while True:
            if engine.chain_in == 0:  # the rent is spent: choose, then run
                engine._buy_chain()
            rent = engine.chain_in
            left = self.max_nodes - self.nodes
            cap = left if rent is None else min(rent, left)
            nodes, count, witness, exhausted = engine.run(lo, hi, cap)
            self.nodes += nodes
            if rent is not None:
                engine.chain_in = rent - nodes  # the next run on this engine counts on
            # a run stopped at the rent with budget left starts over
            if engine.chain_in != 0 or not exhausted or cap == left:
                break
        self.complete = not exhausted
        return count, witness


def achievable_differences(
    graph: Graph, p: int, budget: Budget | None = None
) -> tuple[dict[int, tuple[int, ...]], bool, int]:
    """Map each achievable d = |rho|-|eta| to its first witness labeling.

    One probe [d, d] per d in -size..size of the size's parity, on one
    engine. Returns (witnesses, complete, nodes). complete is False when the
    budget ran out, in which case the map may be partial.
    """
    check_prime(p)
    probes = _Probes(p, budget)
    q = graph.size
    found = {d: probes.run(graph, d, d)[1] for d in range(-q, q + 1, 2)}
    witnesses = {d: lab for d, lab in found.items() if lab is not None}
    return witnesses, probes.complete, probes.nodes


class RecipeSearchResult(Record):
    __slots__ = ("outcome", "recipe", "nodes")

    def __init__(self, outcome: str, recipe: ConstructionRecipe | None, nodes: int):
        object.__setattr__(self, "outcome", outcome)  # "found" | "none" | "exhausted"
        object.__setattr__(self, "recipe", recipe)
        object.__setattr__(self, "nodes", nodes)


def find_base_labelings(
    theorem: str, g1: Graph, g2: Graph, p: int, budget: Budget | None = None
) -> RecipeSearchResult:
    """Search for base labelings satisfying a construction's balance hypothesis.

    Structural preconditions (orders, divisibility, connectivity, odd-cycle
    and tree requirements) are enforced before any search begins and raise
    immediately. A single-labeling hypothesis is one probe of its factor at
    the target window; the join and corona probe both factors (see
    ``_probe_pair``). Outcome "none" certifies that no pair of labelings fits.
    """
    theorem = normalize_theorem(theorem)
    form = balance_form(theorem, g1, g2, p)  # raises on structural violations
    probes = _Probes(p, budget)
    labeled1, labeled2 = BASE_LABELINGS[theorem]
    if labeled1 and labeled2:
        labs = _probe_pair(probes, form, g1, g2)
    else:  # the hypothesis constrains one factor
        lab = probes.run(g1 if labeled1 else g2, form.lo, form.hi)[1]
        labs = None if lab is None else (lab, None) if labeled1 else (None, lab)
    if labs is None:
        return RecipeSearchResult("none" if probes.complete else "exhausted", None, probes.nodes)
    return RecipeSearchResult("found", ConstructionRecipe(theorem, p, g1, g2, *labs), probes.nodes)


def _probe_pair(
    probes: _Probes, form: BalanceForm, g1: Graph, g2: Graph
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Labelings of g1 and g2 with coef1*d1 + coef2*d2 in [lo, hi], or None.

    The factor with fewer vertices is probed at each d_scan in ascending
    order, and when it reaches d_scan the other factor is probed at the
    complementary window. A d_scan whose window holds no difference of the
    other factor (none in [-size, size] of the size's parity) is skipped
    without a probe.
    """
    scan_is_g1 = g1.order <= g2.order
    scan, other = (g1, g2) if scan_is_g1 else (g2, g1)
    scan_coef, other_coef = (form.coef1, form.coef2) if scan_is_g1 else (form.coef2, form.coef1)
    q = other.size
    for d_scan in range(-scan.size, scan.size + 1, 2):
        # need other_coef * d_other in [lo - scan_coef*d_scan, hi - scan_coef*d_scan]
        d_lo = max(-(-(form.lo - scan_coef * d_scan) // other_coef), -q)  # ceil
        d_hi = min((form.hi - scan_coef * d_scan) // other_coef, q)  # floor
        d_lo, d_hi = _parity_window(other, d_lo, d_hi)
        if d_lo > d_hi:
            continue
        lab_scan = probes.run(scan, d_scan, d_scan)[1]
        lab_other = None if lab_scan is None else probes.run(other, d_lo, d_hi)[1]
        if lab_other is not None:
            return (lab_scan, lab_other) if scan_is_g1 else (lab_other, lab_scan)
    return None
