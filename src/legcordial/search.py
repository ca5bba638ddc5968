"""Exhaustive / backtracking oracle over vertex labelings.

The engine assigns labels in vertex order of decreasing degree (ties broken
by index) and tries candidate labels ascending, so results are deterministic
for a fixed spec. All objectives are integer windows on the rho-minus-eta
statistic d = e1 - e0: cordiality is d in [-1, 1], a target difference is
[d, d], a target window is [d-1, d+1]. A partial assignment is pruned
exactly when even labeling every undecided edge uniformly 0 or uniformly 1
cannot bring d into the window, which keeps pruning sound for counting and
non-existence proofs, not just satisfiability.

Two exact reductions shrink the tree, residue classes with twin runs and
the stabilizer chain; symmetry.py holds them and the rule between them.
Every engine starts under the first. One with T >= n! never chooses,
since no chain can cut more; any other rents nodes, counted over its
runs, before it chooses (ski rental; Karlin, Manasse, Rudolph and
Sleator, "Competitive snoopy caching", Algorithmica 1988): 0 in
count-all, which visits the whole tree, and CHAIN_AFTER in find-first,
which stops at its first witness, mostly too soon for the chain's set-up
to pay (prove-none is find-first, its "none" the certificate). Once the
rent is spent, _Probes.run buys and starts the run that spent it over, so
every run searches under one rule. The last position's label, the one
left unused, is read off by the position before it, not scanned for.

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

from . import symmetry
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
        _check_type("graph", graph, Graph)
        _check_type("objective", objective, DiffWindow)
        if budget is not None and not isinstance(budget, Budget):  # None: the default budget
            raise TypeError(f"budget must be a Budget or None, got {type(budget).__name__}")
        _check_ceiling(graph)
        check_prime(p)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "mode", mode)


def _check_type(name: str, value: object, kind: type) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


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


class _Engine:
    """Shared backtracking core; one instance per (graph, prime, count-all
    or not). Each entry point checks the prime before _Probes builds an
    engine: SearchSpec, balance_form or achievable_differences itself."""

    def __init__(
        self, graph: Graph, p: int, count_all: bool = False, deadline: float | None = None
    ):
        """``chain_in`` is the rent (see the module docstring), the nodes
        left before _Probes.run has _buy_chain choose, or None when it never
        does. ``deadline`` holds for the chain's set-up and every run."""
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
        self.pn, self.dp = pn, [deg[v] for v in self.order]
        (above, top, self.q, self.leaf_weight, self.twins), self.cut = symmetry.start(pn, self.dp, p)
        # steps[k] = (earlier neighbours of position k, edges still undecided
        # once k is labeled, above[k], top[k])
        self.steps: list[tuple[list[int], int, int, int]] = []
        remaining = graph.size
        for k in range(n):
            remaining -= len(prev[k])
            self.steps.append((prev[k], remaining, above[k], top[k]))
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
        """Choose the engine's reduction for good: the chain, when
        symmetry.purchase returns its bounds, replaces each step's."""
        self.chain_in = None
        chain = symmetry.purchase(self.pn, self.dp, self.cut, self.deadline)
        if chain is not None:
            above, top, self.q, self.leaf_weight, self.twins = chain
            for k, (prev_k, rem, *_) in enumerate(self.steps):
                self.steps[k] = (prev_k, rem, above[k], top[k])


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
    ``run`` alone buys the chain, once the engine's rent is spent. A run
    gets at most the rent left, and one that stops at the rent with budget
    to spare starts over after the purchase; its nodes count in ``nodes``.
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
    _check_type("graph", graph, Graph)
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
    _check_type("g1", g1, Graph)
    _check_type("g2", g2, Graph)
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
