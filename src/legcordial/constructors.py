"""Constructive cordial labelers for graphs built by graph operations.

Each constructor validates its hypotheses, builds the composite graph, emits
an explicit vertex labeling, and predicts the induced edge counts (e0, e1)
in closed form. The prediction is then checked against the verifier; any
mismatch raises ConstructionError rather than a warning, because the closed
form is the whole point of the construction. On rejected input no labeling
is attempted.

The eight constructions and their hypotheses:

  corona-path    g connected, order n >= 2, size in {n-1, n, n+1};
                 p = +-3 (mod 8). Builds g o P_{p-1}.
  kp-tensor      g connected bipartite, order >= 2. Builds K_p x g.
  join           |V(g1)| = n*p; d1 + d2 in [nm-1, nm+1] where m = |V(g2)|
                 and d_i = |rho_i| - |eta_i| of the base labelings.
  corona         g1 connected, |V(g2)| = m*p; d1 + n*d2 in [nm-1, nm+1].
  lexicographic  g1 connected with size = order = n (unicyclic);
                 |V(g2)| = m*p; d2 = m^2 * p exactly.
  cartesian      both connected, |V(g1)| = m*p, |E(g2)| = k * |V(g2)|;
                 d1 = m*k exactly.
  tensor         both connected, one factor has an odd cycle,
                 |V(g1)| = n*p; d1 = 0 exactly.
  strong         both connected, |V(g1)| = 3*p, g2 a tree; d1 = 1 exactly.

The six balance predictions share one counting step, the residue sweep
(_swept): each labeled factor edge is repeated a times with its induced
label, and the other edges come in blocks of p label sums that run through
every residue mod p, each block giving (p+1)/2 zeros and (p-1)/2 ones.
corona-path and kp-tensor keep their own closed forms.

BASE_LABELINGS is the one place a theorem is registered: it says which
factors carry a base labeling, and recipe dispatch, the CLI's --auto trigger
and find_base_labelings read it. A new theorem is one entry there plus a
construct_<name> function (- written as _) and, if labeled, a balance_form case.

A constructor takes each factor once, then p: a factor that BASE_LABELINGS
labels is passed as its Labeling, which carries the graph, and any other
factor as its Graph; construct_join(lab_g1, lab_g2, p), for example, or
construct_lexicographic(g1, lab_g2, p).

For the strong construction the tree requirement is read off the second
factor (its size must be its order minus one); the first factor's size is
unconstrained. Each shift is the full order of the repeated factor (a
multiple of p), so every congruence the counting argument needs is
preserved while the assignment stays bijective for all factor orders;
products.pair_labels lays the shifted copies out.
"""

from __future__ import annotations

from .graph import (
    Graph,
    Record,
    bipartition,
    exact_ints,
    has_odd_cycle,
    is_connected,
    make_complete,
    make_path,
)
from .labeling import (
    AdmissionError,
    EdgeTally,
    Labeling,
    induced_tally,
)
from .numtheory import LegendreContext, check_prime
from .products import (
    cartesian as cartesian_product,
    corona as corona_product,
    join as join_product,
    lexicographic as lexicographic_product,
    pair_labels,
    strong as strong_product,
    tensor as tensor_product,
)

# (g1 carries a base labeling, g2 carries a base labeling) for each theorem.
BASE_LABELINGS = {
    "corona-path": (False, False),
    "kp-tensor": (False, False),
    "join": (True, True),
    "corona": (True, True),
    "lexicographic": (False, True),
    "cartesian": (True, False),
    "tensor": (True, False),
    "strong": (True, False),
}

THEOREMS = tuple(BASE_LABELINGS)

_ALIASES = {
    "lex": "lexicographic",
    "cart": "cartesian",
    "coronapath": "corona-path",
    "corona_path": "corona-path",
    "kptensor": "kp-tensor",
    "kp_tensor": "kp-tensor",
    "tensor-kp": "kp-tensor",
}

# Theorems whose hypotheses constrain base-labeling statistics (rho/eta).
BALANCE_THEOREMS = tuple(t for t, slots in BASE_LABELINGS.items() if any(slots))


def normalize_theorem(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in THEOREMS:
        raise ValueError(f"unknown construction {name!r}; choose from {', '.join(THEOREMS)}")
    return key


class HypothesisViolation(Exception):
    """A construction hypothesis failed; carries the evaluated sides."""

    def __init__(self, condition: str, lhs=None, rhs=None):
        self.condition = condition
        self.lhs = lhs
        self.rhs = rhs
        detail = condition
        if lhs is not None or rhs is not None:
            detail += f" (got {lhs}, required {rhs})"
        super().__init__(detail)


class ConnectivityViolation(HypothesisViolation):
    """A connectivity / odd-cycle hypothesis failed."""


class ConstructionError(RuntimeError):
    """The verifier disagreed with the closed-form prediction."""


class ConstructionRecipe(Record):
    """Everything needed to reproduce one construction."""

    __slots__ = ("theorem", "p", "g1", "g2", "lab_g1", "lab_g2")

    def __init__(self, theorem: str, p: int, g1: Graph | None, g2: Graph | None,
                 lab_g1: tuple[int, ...] | None = None, lab_g2: tuple[int, ...] | None = None):
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "lab_g1", None if lab_g1 is None else exact_ints(lab_g1, "label"))
        object.__setattr__(self, "lab_g2", None if lab_g2 is None else exact_ints(lab_g2, "label"))


class BalanceForm(Record):
    """Hypothesis equation coef1*d1 + coef2*d2 in [lo, hi] on rho-minus-eta values.

    coef_i is 0 exactly when BASE_LABELINGS gives factor i no base labeling.
    n, m and k are the theorem's constants, None where it has none.
    """

    __slots__ = ("coef1", "coef2", "lo", "hi", "n", "m", "k")

    def __init__(self, coef1: int, coef2: int, lo: int, hi: int, n: int,
                 m: int | None = None, k: int | None = None):
        object.__setattr__(self, "coef1", coef1)
        object.__setattr__(self, "coef2", coef2)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)


def _require_multiple(order: int, p: int, what: str) -> int:
    if order % p != 0:
        raise HypothesisViolation(
            f"{what} must be a multiple of p={p}", lhs=order, rhs=f"k*{p}"
        )
    return order // p


def balance_form(theorem: str, g1: Graph, g2: Graph, p: int) -> BalanceForm:
    """Structural gates plus the hypothesis window for the six balance theorems.

    Raises ConnectivityViolation / HypothesisViolation when a structural
    precondition fails, before any labeling statistics are consulted.
    """
    theorem = normalize_theorem(theorem)
    check_prime(p)
    if theorem == "join":
        n = _require_multiple(g1.order, p, "order of g1")
        m = g2.order
        return BalanceForm(1, 1, n * m - 1, n * m + 1, n, m)
    if theorem == "corona":
        if not is_connected(g1):
            raise ConnectivityViolation("g1 must be connected")
        m = _require_multiple(g2.order, p, "order of g2")
        n = g1.order
        return BalanceForm(1, n, n * m - 1, n * m + 1, n, m)
    if theorem == "lexicographic":
        if not is_connected(g1):
            raise ConnectivityViolation("g1 must be connected")
        if g1.size != g1.order:
            raise HypothesisViolation(
                "g1 must have size equal to its order", lhs=g1.size, rhs=g1.order
            )
        m = _require_multiple(g2.order, p, "order of g2")
        target = m * m * p
        return BalanceForm(0, 1, target, target, g1.order, m)
    if theorem == "cartesian":
        if not (is_connected(g1) and is_connected(g2)):
            raise ConnectivityViolation("both factors must be connected")
        m = _require_multiple(g1.order, p, "order of g1")
        n = g2.order
        if g2.size % n != 0:
            raise HypothesisViolation(
                "size of g2 must be an integer multiple of its order",
                lhs=g2.size,
                rhs=f"k*{n}",
            )
        k = g2.size // n
        return BalanceForm(1, 0, m * k, m * k, n, m, k)
    if theorem == "tensor":
        if not (is_connected(g1) and is_connected(g2)):
            raise ConnectivityViolation("both factors must be connected")
        if g1.order < 2 or g2.order < 2:
            raise ConnectivityViolation(
                "a one-vertex factor gives an edgeless, disconnected product"
            )
        if not (has_odd_cycle(g1) or has_odd_cycle(g2)):
            raise ConnectivityViolation(
                "at least one factor must contain an odd cycle"
            )
        n = _require_multiple(g1.order, p, "order of g1")
        return BalanceForm(1, 0, 0, 0, n, g2.order)
    if theorem == "strong":
        if not (is_connected(g1) and is_connected(g2)):
            raise ConnectivityViolation("both factors must be connected")
        if g1.order != 3 * p:
            raise HypothesisViolation(
                "order of g1 must equal 3*p", lhs=g1.order, rhs=3 * p
            )
        n = g2.order
        if g2.size != n - 1:
            raise HypothesisViolation(
                "g2 must be a tree (size = order - 1)", lhs=g2.size, rhs=n - 1
            )
        return BalanceForm(1, 0, 1, 1, n)
    raise ValueError(f"{theorem} carries no balance hypothesis")


def _base_tallies(
    theorem: str, f1: Graph | Labeling, f2: Graph | Labeling, p: int
) -> tuple[LegendreContext, BalanceForm, EdgeTally | None, EdgeTally | None]:
    """Shared preamble of the balance constructions.

    A factor that BASE_LABELINGS labels comes as its Labeling, any other as
    its Graph. Checks the structural gates and the balance hypothesis;
    returns the context, the form and each labeled factor's tally
    (e1 = |rho|, e0 = |eta|), None for a factor without a base labeling.
    """
    labeled1, labeled2 = BASE_LABELINGS[theorem]
    g1 = f1.graph if labeled1 else f1
    g2 = f2.graph if labeled2 else f2
    form = balance_form(theorem, g1, g2, p)
    ctx = LegendreContext(p)
    t1 = induced_tally(f1, ctx) if labeled1 else None
    t2 = induced_tally(f2, ctx) if labeled2 else None
    d1 = t1.difference if labeled1 else 0
    d2 = t2.difference if labeled2 else 0
    lhs = form.coef1 * d1 + form.coef2 * d2
    if not form.lo <= lhs <= form.hi:
        raise HypothesisViolation(
            "balance hypothesis on rho-minus-eta statistics",
            lhs=lhs,
            rhs=(form.lo, form.hi),
        )
    return ctx, form, t1, t2


def _swept(p: int, blocks: int, *weighted: tuple[EdgeTally, int]) -> EdgeTally:
    """The residue-sweep prediction (see the module docstring): a times each
    (tally, a) in ``weighted``, plus ``blocks`` blocks of p sums."""
    e0 = blocks * (p + 1) // 2
    e1 = blocks * (p - 1) // 2
    for t, a in weighted:
        e0 += a * t.e0
        e1 += a * t.e1
    return EdgeTally(e0, e1)


def _finalize(
    composite: Graph, assign: list[int], ctx: LegendreContext, predicted: EdgeTally
) -> tuple[Graph, Labeling, EdgeTally]:
    lab = Labeling(composite, tuple(assign))  # rejects non-bijections
    tally = induced_tally(lab, ctx)
    if tally != predicted:
        raise ConstructionError(
            f"verifier tally ({tally.e0},{tally.e1}) != predicted ({predicted.e0},{predicted.e1})"
        )
    if not predicted.is_cordial:
        raise ConstructionError(f"prediction ({predicted.e0},{predicted.e1}) is not cordial")
    return composite, lab, predicted


# ---------------------------------------------------------------------------
# Constructions without base labelings
# ---------------------------------------------------------------------------

def construct_corona_path(g: Graph, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Corona of a sparse connected graph with the path on p-1 vertices.

    Hosts take labels (p+1)/2 + p*(i-1); within copy i the path vertices get
    j + (p+1)/2 + p*(i-1) along the first half and j - (p-1)/2 + p*(i-1)
    along the second, so consecutive path sums sweep every residue except 2
    and 0, and p = +-3 (mod 8) makes 2 a nonresidue. Predicted counts:
    e0 = n(p-3)/2 + n(p-1)/2 + n and e1 = n(p-1)/2 + n(p-3)/2 + q.
    """
    ctx = LegendreContext(p)
    if ctx.symbols[2] != -1:
        raise HypothesisViolation(
            "requires (2/p) = -1, i.e. p = +-3 (mod 8)", lhs=p % 8, rhs="3 or 5"
        )
    if not is_connected(g):
        raise AdmissionError("base graph must be connected")
    n, q = g.order, g.size
    if n < 2:
        raise HypothesisViolation("base graph must have order >= 2", lhs=n, rhs=">= 2")
    if q not in (n - 1, n, n + 1):
        raise HypothesisViolation(
            "base graph size must lie in {n-1, n, n+1}",
            lhs=q,
            rhs=(n - 1, n + 1),
        )
    composite = corona_product(g, make_path(p - 1))
    half_up = (p + 1) // 2
    half_dn = (p - 1) // 2
    path = [j + half_up if j <= half_dn else j - half_dn for j in range(1, p)]
    blocks = range(0, n * p, p)
    assign = pair_labels(blocks, path) + [half_up + b for b in blocks]
    e0 = n * (p - 3) // 2 + n * (p - 1) // 2 + n
    e1 = n * (p - 1) // 2 + n * (p - 3) // 2 + q
    return _finalize(composite, assign, ctx, EdgeTally(e0, e1))


def construct_kp_tensor(g: Graph, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Tensor product of the complete graph on p vertices with a bipartite graph.

    Vertices over side 1 are labeled ascending within their block, side-2
    blocks descending with the top slot reserved for t = p; every edge class
    then meets each nonzero residue equally often, giving
    e0 = e1 = m*p*(p-1)/2 where m is the size of g.
    """
    ctx = LegendreContext(p)
    if not is_connected(g):
        raise AdmissionError("factor graph must be connected")
    if g.order < 2:
        raise HypothesisViolation(
            "factor graph must have order >= 2", lhs=g.order, rhs=">= 2"
        )
    side = bipartition(g)
    if side is None:
        raise HypothesisViolation("factor graph must be bipartite (no odd cycle)")
    # each vertex's block: side 1 in vertex order, then side 2 (the sort is stable)
    block = {u: b for b, u in enumerate(sorted(range(g.order), key=side.__getitem__))}
    columns = {1: range(1, p + 1), 2: [*range(p - 1, 0, -1), p]}
    composite = tensor_product(make_complete(p), g)
    assign = [columns[side[u]][t] + p * block[u] for t in range(p) for u in range(g.order)]
    half = g.size * p * (p - 1) // 2
    return _finalize(composite, assign, ctx, EdgeTally(half, half))


# ---------------------------------------------------------------------------
# Constructions driven by base labelings
# ---------------------------------------------------------------------------

def construct_join(lab_g1: Labeling, lab_g2: Labeling, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Join of a labeled graph of order n*p with any labeled graph.

    Keeps g1's labels and shifts g2's by n*p; every cross edge block then
    sweeps a complete residue system. Predicted counts:
    e0 = |eta1| + |eta2| + nm(p-1)/2 + nm,  e1 = |rho1| + |rho2| + nm(p-1)/2.
    """
    ctx, form, t1, t2 = _base_tallies("join", lab_g1, lab_g2, p)
    n, m = form.n, form.m
    composite = join_product(lab_g1.graph, lab_g2.graph)
    assign = list(lab_g1.assign) + [x + n * p for x in lab_g2.assign]
    return _finalize(composite, assign, ctx, _swept(p, n * m, (t1, 1), (t2, 1)))


def construct_corona(lab_g1: Labeling, lab_g2: Labeling, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Corona of a labeled connected graph with n copies of a labeled graph of order m*p.

    Copy i reuses g2's labels shifted by m*p*(i-1); hosts take g1's labels
    shifted past every copy. Predicted counts:
    e0 = |eta1| + n|eta2| + nm(p-1)/2 + nm,  e1 = |rho1| + n|rho2| + nm(p-1)/2.
    """
    ctx, form, t1, t2 = _base_tallies("corona", lab_g1, lab_g2, p)
    n, m = form.n, form.m
    composite = corona_product(lab_g1.graph, lab_g2.graph)
    assign = pair_labels(range(0, n * m * p, m * p), lab_g2.assign)
    assign += [x + n * m * p for x in lab_g1.assign]
    return _finalize(composite, assign, ctx, _swept(p, n * m, (t1, 1), (t2, n)))


def construct_lexicographic(g1: Graph, lab_g2: Labeling, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Lexicographic product of a unicyclic graph with a labeled graph of order m*p.

    Block i repeats g2's labels shifted by m*p*i. Predicted counts:
    e0 = n|eta2| + n m^2 p (p-1)/2 + n m^2 p,  e1 = n|rho2| + n m^2 p (p-1)/2;
    the hypothesis d2 = m^2 p makes the difference exactly 0.
    """
    ctx, form, _, t2 = _base_tallies("lexicographic", g1, lab_g2, p)
    n, m = form.n, form.m
    composite = lexicographic_product(g1, lab_g2.graph)
    assign = pair_labels(range(0, n * m * p, m * p), lab_g2.assign)
    return _finalize(composite, assign, ctx, _swept(p, n * m * m * p, (t2, n)))


def construct_cartesian(lab_g1: Labeling, g2: Graph, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Cartesian product of a labeled graph of order m*p with a graph of size k*order.

    Column j repeats g1's labels shifted by m*p*j; edges inside a column keep
    g1's induced labels while cross edges sum to 2*g1(a) mod p, sweeping a
    complete residue system per block. Predicted counts:
    e0 = n|eta1| + nmk(p-1)/2 + nmk,  e1 = n|rho1| + nmk(p-1)/2.
    """
    ctx, form, t1, _ = _base_tallies("cartesian", lab_g1, g2, p)
    n, m, k = form.n, form.m, form.k
    composite = cartesian_product(lab_g1.graph, g2)
    assign = pair_labels(lab_g1.assign, range(0, n * m * p, m * p))
    return _finalize(composite, assign, ctx, _swept(p, n * m * k, (t1, n)))


def construct_tensor(lab_g1: Labeling, g2: Graph, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Tensor product of a balanced-labeled graph of order n*p with a connected graph.

    Each copy j repeats g1's labels shifted by n*p*j, so both composite edges
    spawned by a factor-edge pair inherit g1's induced label. Predicted
    counts: e0 = 2|eta1|q and e1 = 2|rho1|q with q the size of g2.
    """
    ctx, form, t1, _ = _base_tallies("tensor", lab_g1, g2, p)
    n, m = form.n, form.m
    composite = tensor_product(lab_g1.graph, g2)
    assign = pair_labels(lab_g1.assign, range(0, m * n * p, n * p))
    return _finalize(composite, assign, ctx, _swept(p, 0, (t1, 2 * g2.size)))


def construct_strong(lab_g1: Labeling, g2: Graph, p: int) -> tuple[Graph, Labeling, EdgeTally]:
    """Strong product of a labeled graph of order 3p with a tree.

    Combines the cartesian and tensor accountings on the same indexing:
    e0 = n|eta1| + 3(p-1)/2 (n-1) + 3(n-1) + 2|eta1|(n-1),
    e1 = n|rho1| + 3(p-1)/2 (n-1) + 2|rho1|(n-1);
    with d1 = 1 the difference is exactly 1 for every tree order n.
    """
    ctx, form, t1, _ = _base_tallies("strong", lab_g1, g2, p)
    n = form.n
    composite = strong_product(lab_g1.graph, g2)
    assign = pair_labels(lab_g1.assign, range(0, n * 3 * p, 3 * p))
    return _finalize(composite, assign, ctx, _swept(p, 3 * (n - 1), (t1, 3 * n - 2)))


# ---------------------------------------------------------------------------
# Recipe plumbing
# ---------------------------------------------------------------------------

def run_recipe(recipe: ConstructionRecipe) -> tuple[Graph, Labeling, EdgeTally]:
    """Execute a recipe through the matching constructor."""
    theorem = normalize_theorem(recipe.theorem)
    if not any(BASE_LABELINGS[theorem]):  # one factor: g1, else g2
        g = recipe.g1 if recipe.g1 is not None else recipe.g2
        if g is None:
            raise ValueError(f"recipe for {theorem} needs a factor graph, g1 or g2")
        args = [g]
    elif recipe.g1 is None or recipe.g2 is None:
        raise ValueError(f"recipe for {theorem} needs both factor graphs")
    else:
        # one constructor argument per factor: its Labeling if labeled, else its Graph
        args = []
        slots = ((recipe.g1, recipe.lab_g1, "lab_g1"), (recipe.g2, recipe.lab_g2, "lab_g2"))
        for (g, assign, which), labeled in zip(slots, BASE_LABELINGS[theorem]):
            if labeled and assign is None:
                raise ValueError(f"recipe for {theorem} needs {which}")
            args.append(Labeling(g, tuple(assign)) if labeled else g)
    # looked up by name at call time, so a module-level wrapper sees the call
    return globals()["construct_" + theorem.replace("-", "_")](*args, recipe.p)
