"""Spans around calls into legcordial's modules, recorded from outside the package.

``Tracer.install`` wraps the public functions listed in ``WRAPPED`` and the
constructors ``Graph.__init__``, ``Labeling.__post_init__`` and
``LegendreContext.__init__``. A wrapped function is patched under every name
that refers to it in every ``legcordial`` module, so calls between modules
go through the wrapper too. Each call records a span (name, start, end,
parent span, request); a span's self time is its duration minus the
durations of its direct children. ``per_layer`` turns one pass of spans into
the per-module metrics listed under ``per_layer`` in BENCHMARK.json.

Per-element helpers (``edge_label``, ``pair_index``, ...) are deliberately
not wrapped: they run once per edge, so a wrapper would cost more than the
work it measures.
"""

from __future__ import annotations

import functools
import sys
import time

WRAPPED = {
    "search": ("search_labeling", "achievable_differences", "find_base_labelings"),
    "graph": (
        "Graph.__init__", "is_connected", "bipartition", "has_odd_cycle",
        "graph_to_json", "graph_from_json", "graph_dumps", "graph_loads",
    ),
    "products": ("join", "corona", "lexicographic", "cartesian", "tensor", "strong"),
    "labeling": ("Labeling.__post_init__", "induced_tally", "is_cordial", "rho_eta"),
    "constructors": (
        "construct_corona_path", "construct_kp_tensor", "construct_join",
        "construct_corona", "construct_lexicographic", "construct_cartesian",
        "construct_tensor", "construct_strong", "run_recipe", "balance_form",
    ),
    "numtheory": ("LegendreContext.__init__",),
    "cli": ("main",),
}

_CONSTRUCTS = tuple(n for n in WRAPPED["constructors"] if n.startswith("construct_"))
_CONNECTIVITY = ("is_connected", "bipartition", "has_odd_cycle")


def _solutions(result) -> int:
    if result.count is not None:
        return result.count
    return 1 if result.outcome == "found" else 0


# counter name -> (wrapped function, value added per completed call)
_HOOKS = {
    "search.search_labeling": (
        ("search.nodes", lambda args, res: res.nodes),
        ("search.solutions", lambda args, res: _solutions(res)),
    ),
    "search.find_base_labelings": (("search.find_base_nodes", lambda args, res: res.nodes),),
    "graph.Graph.__init__": (("graph.init_edges", lambda args, res: len(args[0].edges)),),
    "labeling.induced_tally": (("labeling.tally_edges", lambda args, res: args[0].graph.size),),
}
for _op in WRAPPED["products"]:
    _HOOKS[f"products.{_op}"] = (("products.edges_out", lambda args, res: res.size),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent span or -1, request)
        self.counters: dict[str, int] = {}
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import legcordial

        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "legcordial" or name.startswith("legcordial."))
        ]
        for mod_name, funcs in WRAPPED.items():
            home = getattr(legcordial, mod_name)
            for func in funcs:
                span_name = f"{mod_name}.{func}"
                cls_name, _, method = func.rpartition(".")
                if cls_name:
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, self._wrap(original, span_name))
                    continue
                original = getattr(home, func)
                wrapper = self._wrap(original, span_name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        hooks = _HOOKS.get(span_name, ())
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.request)
            for counter, value in hooks:
                counters[counter] = counters.get(counter, 0) + value(args, result)
            return result

        return wrapper

    # -- one pass ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counters.clear()

    def per_layer(self) -> tuple[dict[str, float], dict[str, int]]:
        """(times in seconds, deterministic counts) for the spans of one pass."""
        spans = self.spans
        child = [0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, (name_id, start, end, _, _) in enumerate(spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - child[i])

        def n(*names: str) -> int:
            return sum(calls.get(x, 0) for x in names)

        def s(*names: str) -> float:
            return sum(self_ns.get(x, 0) for x in names) / 1e9

        c = self.counters
        counts = {
            "search.calls": n("search.search_labeling"),
            "search.nodes": c.get("search.nodes", 0),
            "search.find_base_calls": n("search.find_base_labelings"),
            "search.find_base_nodes": c.get("search.find_base_nodes", 0),
            "graph.init_calls": n("graph.Graph.__init__"),
            "graph.init_edges": c.get("graph.init_edges", 0),
            "graph.connectivity_calls": n(*(f"graph.{x}" for x in _CONNECTIVITY)),
            "products.edges_out": c.get("products.edges_out", 0),
            "labeling.tally_calls": n("labeling.induced_tally"),
            "labeling.tally_edges": c.get("labeling.tally_edges", 0),
            "constructors.calls": n(*(f"constructors.{x}" for x in _CONSTRUCTS)),
            "numtheory.context_builds": n("numtheory.LegendreContext.__init__"),
            "cli.calls": n("cli.main"),
        }
        solve_s = s("search.search_labeling")
        times = {
            "search.solve_s": solve_s,
            "search.nodes_per_s": counts["search.nodes"] / solve_s if solve_s else 0.0,
            "search.solutions_per_node": (
                c.get("search.solutions", 0) / counts["search.nodes"] if counts["search.nodes"] else 0.0
            ),
            "search.find_base_s": s("search.find_base_labelings"),
            "search.achievable_s": s("search.achievable_differences"),
            "graph.init_s": s("graph.Graph.__init__"),
            "graph.connectivity_s": s(*(f"graph.{x}" for x in _CONNECTIVITY)),
            "graph.from_json_s": s("graph.graph_from_json", "graph.graph_loads"),
            "graph.to_json_s": s("graph.graph_to_json", "graph.graph_dumps"),
            **{f"products.{op}_s": s(f"products.{op}") for op in WRAPPED["products"]},
            "labeling.tally_s": s("labeling.induced_tally", "labeling.is_cordial"),
            "labeling.rho_eta_s": s("labeling.rho_eta"),
            "labeling.init_s": s("labeling.Labeling.__post_init__"),
            "constructors.self_s": s(*(f"constructors.{x}" for x in _CONSTRUCTS), "constructors.run_recipe"),
            "constructors.balance_form_s": s("constructors.balance_form"),
            "numtheory.context_s": s("numtheory.LegendreContext.__init__"),
            "cli.self_s": s("cli.main"),
        }
        return times, counts

    def dump(self) -> dict:
        """The spans of the current pass, for writing out after the run."""
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "names": self.names,
            "spans": self.spans,
        }
