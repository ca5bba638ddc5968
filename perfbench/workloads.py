"""The benchmark's three workloads, generated from a seed.

Each workload is a fixed list of calls into legcordial. A call has a timed
part (``fn``) and an untimed check of its result (``check``), which uses only
``check.py``. The seed relabels the vertices of every input graph (a base
labeling moves with its graph) and draws the desk stream's random graphs and
labelings. Counts, verdicts and tallies do not depend on vertex names, so the
expected answers are the same for every seed.

search     exhaustive search_labeling runs; nearly all time is in the engine.
           Instances with p < n have several labels per residue class, the
           ones with p > n have one.
composite  ``legcordial construct`` and ``verify`` run in-process through
           cli.main on composites of 5k to 9k edges; no search runs.
desk       2344 small public-API calls in shuffled order: shallow searches
           and per-call set-up of tiny graphs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile

import legcordial as lc
from legcordial import cli as lc_cli
from legcordial import graph as lc_graph
from legcordial.search import Budget, DiffWindow, SearchSpec

import check
from check import EXPECTED

# Explicit budgets, far above what any call here needs, so that
# LEGCORDIAL_BUDGET_* in the environment cannot change a verdict.
SEARCH_BUDGET = Budget(max_nodes=10**9)
DESK_BUDGET = Budget(max_nodes=10**7)

H7 = ("edges", 7, ((0, 6), (1, 5), (2, 4), (1, 6), (2, 5), (3, 6), (4, 5)))

# Order 7 keeps a call near 10 ms. The benchmark reports each call's fastest
# repetition, which stays steady on a shared machine only when calls are short
# (order-8 calls of 100 ms spread three to four times as much between runs).
SEARCH_INSTANCES = (  # (mode, family spec, p)
    ("count-all", ("cycle", 7), 5),
    ("count-all", ("path", 7), 3),
    ("prove-none", ("complete", 7), 5),
    ("count-all", ("cycle", 7), 11),
    ("prove-none", ("complete", 7), 11),
)

# (key, theorem, g1, inline labels of g1, g2, inline labels of g2, p)
COMPOSITES = (
    ("corona-path path:250 p=11", "corona-path", ("path", 250), None, None, None, 11),
    ("kp-tensor path:63 p=11", "kp-tensor", None, None, ("path", 63), None, 11),
    ("cart cycle:5 x cycle:625 p=5", "cartesian", ("cycle", 5), (2, 1, 3, 5, 4), ("cycle", 625), None, 5),
    ("tensor path:3 x cycle:1251 p=3", "tensor", ("path", 3), (2, 1, 3), ("cycle", 1251), None, 3),
    ("strong cycle:9 x path:250 p=3", "strong", ("cycle", 9), (1, 2, 3, 4, 5, 8, 6, 7, 9), ("path", 250), None, 3),
    ("lex cycle:94 x H7 p=7", "lexicographic", ("cycle", 94), None, H7, tuple(range(1, 8)), 7),
)

RECIPES = (  # (theorem, g1, g2, p); expected outcomes are in expected.json
    ("join", ("cycle", 5), ("path", 4), 5),
    ("join", ("cycle", 6), ("cycle", 7), 3),
    ("corona", ("path", 2), ("edges", 3, ((0, 1),)), 3),
    ("lexicographic", ("cycle", 3), H7, 7),
    ("cartesian", ("cycle", 5), ("cycle", 4), 5),
    ("tensor", ("path", 3), ("cycle", 3), 3),
    ("tensor", ("cycle", 3), ("cycle", 4), 3),
    ("strong", ("cycle", 9), ("path", 4), 3),
)

# desk stream: calls per pass of each kind. The slowest 2 % of calls are the
# order-6 prove-none searches, so op_p99_ms falls inside one group of calls of
# near-equal cost rather than on the edge between two groups.
DESK_MIX = {
    "recipe": 20 * len(RECIPES),
    "corona_path": 240,
    "kp_tensor": 240,
    "find_first": 480,
    "prove_none": 72,
    "is_cordial": 600,
    "json_round_trip": 480,
    "refusal": 72,
}


class Call:
    """One timed call. ``role`` and ``edges`` feed the edges-per-second rates."""

    __slots__ = ("kind", "fn", "check", "role", "edges")

    def __init__(self, kind, fn, check_fn, role=None, edges=0):
        self.kind = kind
        self.fn = fn
        self.check = check_fn
        self.role = role
        self.edges = edges


class Workload:
    def __init__(self, calls: list[Call], tmpdir: str | None = None):
        self.calls = calls
        self.tmpdir = tmpdir

    def close(self) -> None:
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def spec_name(spec) -> str:
    return "H7" if spec == H7 else f"{spec[0]}:{spec[1]}"


def family_edges(spec) -> tuple[int, list[tuple[int, int]]]:
    kind, n = spec[0], spec[1]
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, list(spec[2])


def relabel(rng: random.Random, n: int, edges, labels=None):
    """Rename vertices by a random permutation; a labeling moves with its vertices."""
    perm = list(range(n))
    rng.shuffle(perm)
    new_edges = [(perm[u], perm[v]) for u, v in edges]
    if labels is None:
        return new_edges, None
    new_labels = [0] * n
    for v, lab in enumerate(labels):
        new_labels[perm[v]] = lab
    return new_edges, tuple(new_labels)


def random_connected(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random spanning tree on n vertices plus up to ``extra`` further edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def two_coloring(n: int, edges) -> list[int] | None:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    color[0] = 0
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if color[w] < 0:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return None
    return color


def random_bipartite(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    edges = set(random_connected(rng, n, 0))
    color = two_coloring(n, edges)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if color[u] != color[v]:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def has_cordial_sample(rng: random.Random, n: int, edges, p: int, tries: int = 4000) -> bool:
    """True when random labelings turn up a cordial one: proves that one exists."""
    labels = list(range(1, n + 1))
    for _ in range(tries):
        rng.shuffle(labels)
        e0, e1 = check.recount(edges, labels, p)
        if abs(e0 - e1) <= 1:
            return True
    return False


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def build_search(seed: int, tmp_root: str) -> Workload:
    rng = random.Random(f"search:{seed}")
    calls = []
    for mode, spec, p in SEARCH_INSTANCES:
        key = f"{mode} {spec_name(spec)} p={p}"
        n, edges = family_edges(spec)
        edges, _ = relabel(rng, n, edges)
        g = lc.Graph(n, edges)
        spec_obj = SearchSpec(g, p, budget=SEARCH_BUDGET, mode=mode)
        calls.append(Call(key, lambda s=spec_obj: lc.search_labeling(s),
                          _search_check(key, mode, n, edges, p)))
    return Workload(calls)


def _search_check(key, mode, n, edges, p):
    expected = EXPECTED["search"][key]

    def check_result(res):
        if not isinstance(res, lc.SearchResult):
            return f"{key}: raised {res!r}"
        if mode == "count-all":
            if res.outcome != "found" or not res.complete or res.count != expected:
                return f"{key}: got {res.outcome} count={res.count}, expected count {expected}"
            return check.check_window(edges, n, res.labeling, p, -1, 1)
        if res.outcome != expected or not res.complete:
            return f"{key}: got {res.outcome}, expected {expected}"
        # every labeling of a complete graph has the same tally, so one
        # non-cordial labeling proves that none exists
        e0, e1 = check.recount(edges, range(1, n + 1), p)
        if abs(e0 - e1) <= 1:
            return f"{key}: the identity labeling is cordial, so 'none' is wrong"
        return None

    return check_result


# ---------------------------------------------------------------------------
# composite
# ---------------------------------------------------------------------------

def _write_graph(path: str, n: int, edges) -> None:
    with open(path, "w") as fh:
        json.dump({"order": n, "edges": [list(e) for e in edges]}, fh)


def build_composite(seed: int, tmp_root: str) -> Workload:
    rng = random.Random(f"composite:{seed}")
    tmpdir = tempfile.mkdtemp(prefix="composite-", dir=tmp_root)
    calls = []
    for idx, (key, theorem, g1, lab1, g2, lab2, p) in enumerate(COMPOSITES):
        argv = ["construct", theorem, "--p", str(p)]
        factors = []
        for which, spec, labels in (("1", g1, lab1), ("2", g2, lab2)):
            if spec is None:
                continue
            n, edges = family_edges(spec)
            edges, labels = relabel(rng, n, edges, labels)
            path = os.path.join(tmpdir, f"c{idx}-g{which}.json")
            _write_graph(path, n, edges)
            single = theorem in ("corona-path", "kp-tensor")
            argv += ["--g" if single else f"--g{which}", path]
            if labels is not None:
                argv += [f"--lab-g{which}", ",".join(map(str, labels))]
            factors.append((n, len(edges)))
        if theorem == "corona-path":
            shape = check.product_shape("corona", *factors[0], p - 1, p - 2)
        elif theorem == "kp-tensor":
            shape = check.product_shape("tensor", p, p * (p - 1) // 2, *factors[0])
        else:
            shape = check.product_shape(theorem, *factors[0], *factors[1])
        state = _CompositeState(key, p, shape, tmpdir, idx)
        argv += ["--out", state.out_file]
        calls.append(Call(f"construct {key}", lambda a=argv: lc_cli.main(a),
                          state.check_construct, role="construct", edges=shape[1]))
        verify_argv = ["verify", "--g", state.graph_file, "--labeling", state.labeling_file,
                       "--out", state.verify_file]
        calls.append(Call(f"verify {key}", lambda a=verify_argv: lc_cli.main(a),
                          state.check_verify, role="verify", edges=shape[1]))
    return Workload(calls, tmpdir)


class _CompositeState:
    """Checks one construct/verify pair; the construct's output is parsed once.

    Later passes must write byte-identical output, so comparing bytes is
    enough to carry the first pass's check over.
    """

    def __init__(self, key, p, shape, tmpdir, idx):
        self.key = key
        self.p = p
        self.shape = shape
        self.expected = tuple(EXPECTED["composite"][key])
        self.out_file = os.path.join(tmpdir, f"c{idx}-out.json")
        self.graph_file = os.path.join(tmpdir, f"c{idx}-graph.json")
        self.labeling_file = os.path.join(tmpdir, f"c{idx}-labeling.json")
        self.verify_file = os.path.join(tmpdir, f"c{idx}-verify.json")
        self.checked_bytes = None

    def check_construct(self, rc):
        if rc != 0:
            return f"construct {self.key}: exit code {rc!r}"
        with open(self.out_file, "rb") as fh:
            data = fh.read()
        # Each pass writes a new file: on ext4, truncating and rewriting a
        # file forces its writeback, which would put disk latency into the
        # timed call.
        os.unlink(self.out_file)
        if data == self.checked_bytes:
            return None
        bundle = json.loads(data)
        graph, labeling = bundle["graph"], bundle["labeling"]
        verified = bundle["verified"]
        err = check.check_labeled_composite(
            graph["order"], graph["edges"], labeling["assign"], self.p, self.shape,
            (verified["e0"], verified["e1"]), self.expected,
        )
        if err is None and labeling["p"] != self.p:
            err = f"labeling carries p={labeling['p']}"
        if err is not None:
            return f"construct {self.key}: {err}"
        _write_graph(self.graph_file, graph["order"], graph["edges"])
        with open(self.labeling_file, "w") as fh:
            json.dump(labeling, fh)
        self.checked_bytes = data
        return None

    def check_verify(self, rc):
        if rc != 0:
            return f"verify {self.key}: exit code {rc!r}"
        with open(self.verify_file) as fh:
            report = json.load(fh)
        os.unlink(self.verify_file)
        if (report["e0"], report["e1"], report["cordial"]) != (*self.expected, True):
            return f"verify {self.key}: reported {report}, expected {self.expected} cordial"
        return None


# ---------------------------------------------------------------------------
# desk
# ---------------------------------------------------------------------------

_REFUSALS = ("corona_path", "kp_tensor", "strong")


def _recipe(theorem, g1, g2, p):
    found = lc.find_base_labelings(theorem, g1, g2, p, budget=DESK_BUDGET)
    built = lc.run_recipe(found.recipe) if found.outcome == "found" else None
    return found, built


def _desk_recipe(rng, i):
    theorem, s1, s2, p = RECIPES[i % len(RECIPES)]
    key = f"{theorem} {spec_name(s1)} + {spec_name(s2)} p={p}"
    expected = EXPECTED["desk_recipes"][key]
    (n1, e1), (n2, e2) = family_edges(s1), family_edges(s2)
    g1 = lc.Graph(n1, relabel(rng, n1, e1)[0])
    g2 = lc.Graph(n2, relabel(rng, n2, e2)[0])
    shape = check.product_shape(theorem, n1, len(e1), n2, len(e2))

    check_built = _composite_check(f"recipe {key}", p, shape)

    def check_result(res):
        if isinstance(res, Exception):
            return f"recipe {key}: raised {res!r}"
        found, built = res
        if found.outcome != expected:
            return f"recipe {key}: outcome {found.outcome}, expected {expected}"
        return None if built is None else check_built(built)

    return Call("recipe", lambda: _recipe(theorem, g1, g2, p), check_result)


def _composite_check(label, p, shape):
    def check_result(res):
        if isinstance(res, Exception):
            return f"{label}: raised {res!r}"
        graph, lab, pred = res
        err = check.check_labeled_composite(graph.order, graph.edges, lab.assign, p, shape,
                                            (pred.e0, pred.e1))
        return None if err is None else f"{label}: {err}"

    return check_result


def _desk_corona_path(rng, i):
    n = rng.randint(3, 10)
    edges = random_connected(rng, n, rng.randint(0, 2))
    while len(edges) > n + 1:  # the theorem needs size n-1, n or n+1
        edges = random_connected(rng, n, rng.randint(0, 2))
    p = rng.choice((3, 5, 11, 13))
    g = lc.Graph(n, edges)
    shape = check.product_shape("corona", n, len(edges), p - 1, p - 2)
    return Call("corona_path", lambda: lc.construct_corona_path(g, p),
                _composite_check(f"corona-path order {n} p={p}", p, shape),
                role="construct", edges=shape[1])


def _desk_kp_tensor(rng, i):
    n = rng.randint(2, 8)
    edges = random_bipartite(rng, n, rng.randint(0, 3))
    p = rng.choice((3, 5, 7))
    g = lc.Graph(n, edges)
    shape = check.product_shape("tensor", p, p * (p - 1) // 2, n, len(edges))
    return Call("kp_tensor", lambda: lc.construct_kp_tensor(g, p),
                _composite_check(f"kp-tensor order {n} p={p}", p, shape),
                role="construct", edges=shape[1])


def _desk_find_first(rng, i):
    while True:
        n = rng.randint(6, 8)
        edges = random_connected(rng, n, rng.randint(0, n))
        p = rng.choice((3, 5, 7, 11, 13))
        if has_cordial_sample(rng, n, edges, p):
            break
    spec = SearchSpec(lc.Graph(n, edges), p, budget=DESK_BUDGET, mode="find-first")

    def check_result(res):
        if not isinstance(res, lc.SearchResult):
            return f"find-first order {n} p={p}: raised {res!r}"
        if res.outcome != "found":  # a cordial labeling was sampled at set-up
            return f"find-first order {n} p={p}: {res.outcome}, but a cordial labeling exists"
        return check.check_window(edges, n, res.labeling, p, -1, 1)

    return Call("find_first", lambda: lc.search_labeling(spec), check_result)


def _desk_prove_none(rng, i):
    n = 6
    edges = random_connected(rng, n, rng.randint(0, 4))
    p = rng.choice((3, 5, 7, 11))
    # e1 - e0 has the parity of the size, so this exact difference is unreachable
    d = 0 if len(edges) % 2 else 1
    spec = SearchSpec(lc.Graph(n, edges), p, objective=DiffWindow.exact(d),
                      budget=DESK_BUDGET, mode="prove-none")

    def check_result(res):
        if not isinstance(res, lc.SearchResult):
            return f"prove-none order {n} p={p}: raised {res!r}"
        if res.outcome != "none" or not res.complete:
            return f"prove-none order {n} p={p}: {res.outcome}, but d={d} has the wrong parity"
        return None

    return Call("prove_none", lambda: lc.search_labeling(spec), check_result)


def _desk_is_cordial(rng, i):
    n = rng.randint(4, 12)
    edges = random_connected(rng, n, rng.randint(0, n))
    assign = list(range(1, n + 1))
    rng.shuffle(assign)
    assign = tuple(assign)
    p = rng.choice((3, 5, 7, 11, 13))
    g = lc.Graph(n, edges)
    e0, e1 = check.recount(edges, assign, p)
    expected = abs(e0 - e1) <= 1

    def check_result(res):
        return None if res is expected else f"is_cordial order {n} p={p}: {res!r}, expected {expected}"

    return Call("is_cordial", lambda: lc.is_cordial(lc.Labeling(g, assign), lc.LegendreContext(p)),
                check_result, role="verify", edges=len(edges))


def _desk_json_round_trip(rng, i):
    n = rng.randint(4, 12)
    edges = random_connected(rng, n, rng.randint(0, n))
    g = lc.Graph(n, edges)
    expected = check.canonical_edges(edges)

    def check_result(res):
        if not isinstance(res, lc.Graph) or res.order != n or list(res.edges) != expected:
            return f"JSON round trip order {n}: got {res!r}"
        return None

    return Call("json_round_trip", lambda: lc_graph.graph_loads(lc_graph.graph_dumps(g)), check_result)


def _desk_refusal(rng, i):
    kind = _REFUSALS[i % len(_REFUSALS)]
    if kind == "corona_path":  # (2/7) = +1, so p = 7 is outside the theorem
        n = rng.randint(3, 8)
        g = lc.Graph(n, random_connected(rng, n, 0))
        fn = lambda: lc.construct_corona_path(g, 7)
    elif kind == "kp_tensor":  # an odd cycle is not bipartite
        n = rng.choice((5, 7, 9))
        g = lc.Graph(n, relabel(rng, n, family_edges(("cycle", n))[1])[0])
        fn = lambda: lc.construct_kp_tensor(g, 3)
    else:  # the strong construction needs |V(g1)| = 3p
        g1 = lc.Graph(5, relabel(rng, 5, family_edges(("cycle", 5))[1])[0])
        g2 = lc.Graph(3, relabel(rng, 3, family_edges(("path", 3))[1])[0])
        fn = lambda: lc.find_base_labelings("strong", g1, g2, 3, budget=DESK_BUDGET)

    def check_result(res):
        if isinstance(res, lc.HypothesisViolation):
            return None
        return f"refusal {kind}: expected HypothesisViolation, got {res!r}"

    return Call("refusal", fn, check_result)


_DESK_KINDS = {
    "recipe": _desk_recipe,
    "corona_path": _desk_corona_path,
    "kp_tensor": _desk_kp_tensor,
    "find_first": _desk_find_first,
    "prove_none": _desk_prove_none,
    "is_cordial": _desk_is_cordial,
    "json_round_trip": _desk_json_round_trip,
    "refusal": _desk_refusal,
}


def build_desk(seed: int, tmp_root: str) -> Workload:
    rng = random.Random(f"desk:{seed}")
    calls = [_DESK_KINDS[kind](rng, i) for kind, count in DESK_MIX.items() for i in range(count)]
    rng.shuffle(calls)
    return Workload(calls)


WORKLOADS = {"search": build_search, "composite": build_composite, "desk": build_desk}


def build(name: str, seed: int, tmp_root: str) -> Workload:
    return WORKLOADS[name](seed, tmp_root)
