"""Exhaustive / backtracking oracle over vertex labelings.

The engine assigns labels in vertex order of decreasing degree (ties broken
by index) and tries candidate labels ascending, so results are deterministic
for a fixed spec. All objectives are integer windows on the rho-minus-eta
statistic d = e1 - e0: cordiality is d in [-1, 1], a target difference is
[d, d], a target window is [d-1, d+1]. A partial assignment is pruned
exactly when even labeling every undecided edge uniformly 0 or uniformly 1
cannot bring d into the window, which keeps pruning sound for counting and
non-existence proofs, not just satisfiability.

An edge's induced label depends only on (f(u) + f(v)) mod p, so when p < n
two unused labels of one residue class mod p lead to isomorphic subtrees.
Each node therefore expands only the smallest unused label of each class,
and in count-all a subtree counts once per unused label of the chosen
label's class. Outcomes, counts and first witnesses are those of the full
search, because the first witness in search order always uses the smallest
unused label of its class. When p >= n every class holds one label and this
is the plain search.

Three more rules are exact in the same sense. First, the stabilizer chain,
when p >= n. Labels are then distinct, so Aut(G) acts freely on labelings.
Take the labels L in search-position order. A non-identity automorphism s
is decided at the first position a it moves, where L(a) != L(s(a)). So L is
the lex-least labeling of its orbit exactly when L(a) < L(b) for every
position a and every other b in O_a, the orbit of a under the automorphisms
that fix positions 0..a-1 (Puget, "Breaking symmetries in all different
problems", IJCAI 2005). The engine computes these orbits once per graph,
without listing the group, and starts position b's candidates above the
label of the largest a whose orbit holds b. The first witness in search
order is lex-least, so it survives, and so does each difference's first
witness in `achievable_differences`. Count-all weighs every leaf by
|Aut(G)| = prod |O_a|.

Second, twin runs, when p < n. Vertices u and v are twins when
N(u) - {v} = N(v) - {u}; swapping them is an automorphism. Consecutive
positions that are twins form a run, and labels must increase along it. In
count-all the leaf then stands for every order of the run's residue classes,
k! / prod(m_r!) for a run of length k holding m_r labels of class r. The
first witness already increases along every run, since swapping twins keeps
d. (At p >= n the chain holds every twin swap, so runs are not used there.)

Both rules also cap each position's label, once per engine, and a larger
label would leave no leaf below it: L(a) <= n - |O_a| + 1 at p >= n, since
the rest of O_a needs larger labels, and L <= n - (R - t) at offset t of a
twin run of length R. The last position's label, the one left unused, is
computed rather than scanned for.

Third, d always has the parity of the graph's size, so the window is
narrowed to that parity before the engine is built; an empty window is a
certified "none" after 0 nodes.

Budgets count assignment-tree nodes (each candidate label tried at a vertex:
only class representatives, and only labels above the bound of the chain or
the twin run and below the position's ceiling) so runs are reproducible; the
reported node count never exceeds the node budget. An optional wall-clock
limit is a secondary kill switch. A budget-exhausted run is a distinct
outcome, never conflated with a completed proof of non-existence.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from .constructors import (
    BALANCE_THEOREMS,
    BASE_LABELINGS,
    ConstructionRecipe,
    balance_form,
    normalize_theorem,
)
from .graph import Graph
from .numtheory import check_prime

DEFAULT_ORDER_CEILING = 12
DEFAULT_NODE_BUDGET = 2_000_000

MODES = ("find-first", "count-all", "prove-none")


@dataclass(frozen=True)
class Budget:
    max_nodes: int = DEFAULT_NODE_BUDGET
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("node budget must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("time budget must be positive")


@dataclass(frozen=True)
class DiffWindow:
    """Objective window on d = |rho| - |eta| = e1 - e0."""

    lo: int
    hi: int

    @staticmethod
    def cordial() -> "DiffWindow":
        return DiffWindow(-1, 1)

    @staticmethod
    def exact(d: int) -> "DiffWindow":
        return DiffWindow(d, d)

    @staticmethod
    def around(d: int) -> "DiffWindow":
        return DiffWindow(d - 1, d + 1)


@dataclass(frozen=True)
class SearchSpec:
    graph: Graph
    p: int
    objective: DiffWindow = field(default_factory=DiffWindow.cordial)
    budget: Budget = field(default_factory=Budget)
    mode: str = "find-first"
    ceiling: int = DEFAULT_ORDER_CEILING

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.graph.order > self.ceiling:
            raise ValueError(
                f"graph order {self.graph.order} exceeds the search ceiling {self.ceiling}"
            )


@dataclass(frozen=True)
class SearchResult:
    outcome: str  # "found" | "none" | "exhausted"
    nodes: int
    labeling: tuple[int, ...] | None = None
    count: int | None = None
    complete: bool = False

    def to_json(self) -> dict:
        obj: dict = {"outcome": self.outcome, "nodes": self.nodes}
        if self.labeling is not None:
            obj["labeling"] = list(self.labeling)
        if self.count is not None:
            obj["count"] = self.count
        return obj


class _OutOfBudget(Exception):
    pass


class _FoundFirst(Exception):
    pass


def _map_extension(
    pn: list[int], deg: list[int], img: list[int], dom: int, used: int
) -> list[int] | None:
    """Extend a partial map of positions to an automorphism, or return None.

    ``img[x]`` is the image of each x in the bitmask ``dom``, ``used`` is the
    mask of those images, and the mapped pairs already agree on adjacency.
    The next position mapped is the unmapped one with the most mapped
    neighbours, so a dead end shows early.
    """
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
            if _map_extension(pn, deg, img, dom | 1 << u, used | 1 << w):
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


def _stabilizer_chain(pn: list[int], deg: list[int]) -> tuple[list[int], list[int]]:
    """Stabilizer-chain orbits of Aut(G), acting on search positions.

    ``pn[k]`` is position k's neighbourhood bitmask and ``deg[k]`` its
    degree; positions of equal degree are consecutive. O_a is the orbit of a under the
    automorphisms that fix positions 0..a-1. Returns ``(above, sizes)``:
    ``above[b]`` is the largest a < b with b in O_a, or -1, and ``sizes[a]``
    is |O_a|, so |Aut(G)| = prod sizes. Levels run from the last position
    down, so every automorphism found so far fixes 0..a-1 and closes O_a
    without a search.
    """
    n = len(pn)
    if 2 * sum(deg) > n * (n - 1):
        # The complement has the same automorphisms, and its sparser
        # neighbourhoods make the search below choose better.
        pn = [((1 << n) - 1) & ~m & ~(1 << k) for k, m in enumerate(pn)]
        deg = [n - 1 - d for d in deg]
    inv: list[int | None] = [None] * n  # _invariant, computed when first needed
    above = [-1] * n
    sizes = [1] * n
    gens: list[list[int]] = []
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
                if inv[a] is None:
                    inv[a] = _invariant(pn, deg, a)
                if inv[b] is None:
                    inv[b] = _invariant(pn, deg, b)
                if inv[b] != inv[a]:
                    continue
                img = list(range(a)) + [-1] * (n - a)
                img[a] = b
                g = _map_extension(pn, deg, img, fixed | 1 << a, fixed | 1 << b)
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


class _Engine:
    """Shared backtracking core; one instance per (graph, prime)."""

    def __init__(self, graph: Graph, p: int):
        check_prime(p)
        n = graph.order
        deg = [0] * n
        for u, v in graph.edges:
            deg[u] += 1
            deg[v] += 1
        self.graph = graph
        # decreasing degree; the sort is stable, so ties stay in index order
        self.order = sorted(range(n), key=deg.__getitem__, reverse=True)
        pos = [0] * n
        for k, v in enumerate(self.order):
            pos[v] = k
        prev: list[list[int]] = [[] for _ in range(n)]
        pn = [0] * n  # neighbourhood bitmasks over positions
        for u, v in graph.edges:
            ku, kv = pos[u], pos[v]
            pn[ku] |= 1 << kv
            pn[kv] |= 1 << ku
            if ku < kv:
                prev[kv].append(ku)
            else:
                prev[ku].append(kv)
        dp = [deg[v] for v in self.order]
        # above[k]: the earlier position whose label k's must exceed, or -1.
        # run[k]: k's offset in its run of twins, 1 when k is not in a run.
        # top[k]: k's label ceiling plus 1 (see the module docstring).
        if p >= n:
            # Labels are distinct mod p, so Aut(G) acts freely and every leaf
            # stands for |Aut(G)| labelings; the chain holds every twin swap.
            above, sizes = _stabilizer_chain(pn, dp)
            self.aut_weight = math.prod(sizes)
            run = [1] * n
            top = [n + 2 - size for size in sizes]
        else:
            # Twins u, v (N(u) - {v} = N(v) - {u}) at consecutive positions
            # form a run, and labels increase along it.
            self.aut_weight = 1
            above, run = [-1] * n, [1] * n
            for k in range(1, n):
                if dp[k] == dp[k - 1] and pn[k] & ~(1 << (k - 1)) == pn[k - 1] & ~(1 << k):
                    above[k], run[k] = k - 1, run[k - 1] + 1
            top = [n + 1] * n
            for k in range(n - 2, -1, -1):
                if run[k + 1] > 1:  # k + 1 continues k's run
                    top[k] = top[k + 1] - 1
        # steps[k] = (earlier neighbours of position k, edges still undecided
        # once k is labeled, above[k], run[k], top[k])
        self.steps: list[tuple[list[int], int, int, int, int]] = []
        remaining = graph.size
        for k in range(n):
            remaining -= len(prev[k])
            self.steps.append((prev[k], remaining, above[k], run[k], top[k]))
        # what an edge adds to d for every endpoint sum 0..2n: +1 when s mod p
        # is a quadratic residue (edge_label 1), by Euler's criterion, else -1;
        # 2n + 1 pow calls whatever p is, not a table of p residues
        half = (p - 1) // 2
        self.sum_label = [1 if pow(s % p, half, p) == 1 else -1 for s in range(2 * n + 1)]
        self.p = p

    def run(
        self,
        lo: int,
        hi: int,
        stop_at_first: bool,
        max_nodes: int,
        deadline: float | None,
        on_complete=None,
    ) -> dict:
        """Explore the assignment tree; returns nodes used, count, witness, completeness.

        ``on_complete(diff, labels)`` sees every leaf; ``labels`` is indexed
        by search position and changes afterwards (see ``_assign_by_vertex``).
        """
        n = self.graph.order
        p = self.p
        last = n - 1
        total = n * (n + 1) // 2
        labels = [0] * (n + 1)  # labels[-1] stays 0: "above" -1 bounds nothing
        # free[lab]: lab is the smallest unused label of its residue class, so
        # it may be tried now. lab + q is lab's class successor; indices past
        # n are never read and only pad the successors of the largest labels.
        # When p > n every class holds one label, and q = n + 1 keeps the
        # list 2n + 2 long rather than p + n + 1.
        q = min(p, n + 1)
        free = [False] + [True] * q + [False] * n
        # mult[lab]: the labels in 1..n congruent to lab mod p that are >= lab.
        # When lab is the smallest unused label of its class, these are the
        # unused labels of the class, each of which gives an isomorphic subtree.
        mult = [(n - lab) // p + 1 for lab in range(n + 1)]
        nodes = count = 0
        # one budget test per node; past it, raise or poll the deadline and
        # move the checkpoint 4096 nodes on
        checkpoint = max_nodes if deadline is None else 0
        witness = None
        steps = self.steps
        sum_label = self.sum_label

        def place(k: int, diff: int, weight: int, used: int) -> None:
            nonlocal nodes, count, witness, checkpoint
            prev_k, rem, above, t, top = steps[k]
            leaf = k == last
            if leaf:
                # the one label left: free, and alone in its class (mult 1)
                lab = total - used
                candidates = (lab,) if lab > labels[above] else ()
            else:
                candidates = range(labels[above] + 1, top)
            for lab in candidates:
                if not free[lab]:
                    continue
                if nodes >= checkpoint:
                    if nodes >= max_nodes or time.monotonic() > deadline:
                        raise _OutOfBudget
                    checkpoint = min(nodes + 4096, max_nodes)
                nodes += 1
                d = diff
                for j in prev_k:
                    d += sum_label[lab + labels[j]]
                if d - rem > hi or d + rem < lo:
                    continue
                w = weight * mult[lab]
                if t > 1:
                    # The subtree stands for every order of the run's classes:
                    # t / m per step, with m the run's labels so far in lab's
                    # class, multiplies out to t! / prod(m_r!).
                    r = lab % p
                    w = w * t // (1 + sum(1 for x in labels[k - t + 1:k] if x % p == r))
                labels[k] = lab
                if leaf:
                    # rem is 0 here, so the test above put d in [lo, hi]
                    count += w
                    if witness is None:
                        witness = self._assign_by_vertex(labels)
                    if stop_at_first:
                        raise _FoundFirst
                    if on_complete is not None:
                        on_complete(d, labels)
                    return
                free[lab] = False
                free[lab + q] = True
                place(k + 1, d, w, used + lab)
                free[lab + q] = False
                free[lab] = True

        complete = exhausted = False
        try:
            place(0, 0, self.aut_weight, 0)
            complete = True
        except _FoundFirst:
            pass
        except _OutOfBudget:
            exhausted = True
        finally:
            # place refers to itself; dropping it here frees the run's state
            # now rather than at the next cyclic collection
            del place
        return {
            "nodes": nodes,
            "count": count,
            "witness": witness,
            "complete": complete,
            "exhausted_budget": exhausted,
        }

    def _assign_by_vertex(self, labels_by_pos: list[int]) -> tuple[int, ...]:
        assign = [0] * self.graph.order
        for k, v in enumerate(self.order):
            assign[v] = labels_by_pos[k]
        return tuple(assign)


def _deadline(budget: Budget) -> float | None:
    return None if budget.max_seconds is None else time.monotonic() + budget.max_seconds


def search_labeling(spec: SearchSpec) -> SearchResult:
    """Run the oracle described by ``spec``; see the module docstring for semantics.

    find-first returns the first satisfying labeling in search order, or a
    completed-none certificate, or exhausted. count-all counts every
    satisfying permutation (and reports the first witness). prove-none is
    find-first semantics where a completed "none" is the certificate; a
    witness, if one exists, is reported as "found".
    """
    return _run_search(spec, lambda: _Engine(spec.graph, spec.p))


def _run_search(spec: SearchSpec, engine_for: Callable[[], _Engine]) -> SearchResult:
    """Run ``spec`` on ``engine_for()``, an engine for its graph and prime.

    d = e1 - e0 has the parity of the graph's size, so the window shrinks to
    that parity first; an empty window is a certified "none" at 0 nodes,
    reached without building the engine.
    """
    parity = spec.graph.size % 2
    lo = spec.objective.lo + (spec.objective.lo - parity) % 2
    hi = spec.objective.hi - (spec.objective.hi - parity) % 2
    count_all = spec.mode == "count-all"
    if lo > hi:
        return SearchResult("none", 0, count=0 if count_all else None, complete=True)
    out = engine_for().run(lo, hi, not count_all, spec.budget.max_nodes, _deadline(spec.budget))
    if out["exhausted_budget"]:
        return SearchResult("exhausted", out["nodes"])
    if count_all:
        outcome = "found" if out["count"] > 0 else "none"
        return SearchResult(
            outcome, out["nodes"], labeling=out["witness"], count=out["count"], complete=True
        )
    if out["witness"] is not None:
        return SearchResult("found", out["nodes"], labeling=out["witness"])
    return SearchResult("none", out["nodes"], complete=True)


def achievable_differences(
    graph: Graph, p: int, budget: Budget | None = None, ceiling: int = DEFAULT_ORDER_CEILING
) -> tuple[dict[int, tuple[int, ...]], bool, int]:
    """Map each achievable d = |rho|-|eta| to its first witness labeling.

    Returns (witnesses, complete, nodes). complete is False when the budget
    ran out, in which case the map may be partial.
    """
    if graph.order > ceiling:
        raise ValueError(
            f"graph order {graph.order} exceeds the search ceiling {ceiling}"
        )
    budget = budget or Budget()
    engine = _Engine(graph, p)
    witnesses: dict[int, tuple[int, ...]] = {}

    def collect(diff: int, labels_by_pos: list[int]) -> None:
        if diff not in witnesses:
            witnesses[diff] = engine._assign_by_vertex(labels_by_pos)

    q = graph.size
    out = engine.run(
        -q - 1,
        q + 1,
        stop_at_first=False,
        max_nodes=budget.max_nodes,
        deadline=_deadline(budget),
        on_complete=collect,
    )
    return witnesses, not out["exhausted_budget"], out["nodes"]


@dataclass(frozen=True)
class RecipeSearchResult:
    outcome: str  # "found" | "none" | "exhausted"
    recipe: ConstructionRecipe | None
    nodes: int


def find_base_labelings(
    theorem: str,
    g1: Graph,
    g2: Graph,
    p: int,
    budget: Budget | None = None,
    ceiling: int = DEFAULT_ORDER_CEILING,
) -> RecipeSearchResult:
    """Search for base labelings satisfying a construction's balance hypothesis.

    Structural preconditions (orders, divisibility, connectivity, odd-cycle
    and tree requirements) are enforced before any search begins and raise
    immediately. For single-labeling hypotheses the relevant factor is
    searched for the exact target window. For the join and corona the factor
    with fewer vertices is enumerated completely, and for each difference it
    can achieve the other factor is searched for the complementary window;
    outcome "none" certifies that the full combined space was exhausted.
    """
    theorem = normalize_theorem(theorem)
    if theorem not in BALANCE_THEOREMS:
        raise ValueError(f"{theorem} takes no base labelings")
    form = balance_form(theorem, g1, g2, p)  # raises on structural violations
    budget = budget or Budget()
    nodes_left = budget.max_nodes
    deadline = _deadline(budget)

    def remaining_budget() -> Budget:
        secs = None
        if deadline is not None:
            secs = max(deadline - time.monotonic(), 0.001)
        return Budget(max_nodes=max(nodes_left, 1), max_seconds=secs)

    engine = None  # every window search of one call is on the same graph

    def windowed(graph: Graph, lo: int, hi: int) -> SearchResult:
        def engine_for() -> _Engine:
            nonlocal engine
            engine = engine or _Engine(graph, p)
            return engine

        spec = SearchSpec(
            graph,
            p,
            objective=DiffWindow(lo, hi),
            budget=remaining_budget(),
            mode="find-first",
            ceiling=ceiling,
        )
        return _run_search(spec, engine_for)

    labeled1, labeled2 = BASE_LABELINGS[theorem]
    if not (labeled1 and labeled2):  # the hypothesis constrains one factor
        res = windowed(g1 if labeled1 else g2, form.lo, form.hi)
        if res.outcome != "found":
            return RecipeSearchResult(res.outcome, None, res.nodes)
        labs = (res.labeling, None) if labeled1 else (None, res.labeling)
        return RecipeSearchResult("found", ConstructionRecipe(theorem, p, g1, g2, *labs), res.nodes)

    # Two labeled factors: enumerate the smaller one completely.
    scan_is_g1 = g1.order <= g2.order
    scan_graph, other_graph = (g1, g2) if scan_is_g1 else (g2, g1)
    scan_coef, other_coef = (
        (form.coef1, form.coef2) if scan_is_g1 else (form.coef2, form.coef1)
    )
    witnesses, scan_complete, nodes = achievable_differences(
        scan_graph, p, remaining_budget(), ceiling
    )
    total_nodes = nodes
    nodes_left -= nodes
    all_complete = scan_complete
    for d_scan in sorted(witnesses):
        if nodes_left <= 0:
            all_complete = False
            break
        # need other_coef * d_other in [lo - scan_coef*d_scan, hi - scan_coef*d_scan]
        lo_num = form.lo - scan_coef * d_scan
        hi_num = form.hi - scan_coef * d_scan
        d_lo = -(-lo_num // other_coef)  # ceil
        d_hi = hi_num // other_coef  # floor
        if d_lo > d_hi:
            continue
        res = windowed(other_graph, d_lo, d_hi)
        total_nodes += res.nodes
        nodes_left -= res.nodes
        if res.outcome == "found":
            lab1, lab2 = (
                (witnesses[d_scan], res.labeling)
                if scan_is_g1
                else (res.labeling, witnesses[d_scan])
            )
            recipe = ConstructionRecipe(theorem, p, g1, g2, lab_g1=lab1, lab_g2=lab2)
            return RecipeSearchResult("found", recipe, total_nodes)
        if res.outcome == "exhausted":
            all_complete = False
    outcome = "none" if all_complete else "exhausted"
    return RecipeSearchResult(outcome, None, total_nodes)
