"""Command-line surface: generate graphs, apply operations, run constructive
labelings, verify labelings, and search for them.

construct reads flags or a --recipe file; in both, --auto searches for base
labelings only when every one the theorem needs is missing.

Exit codes: 0 success, 1 I/O error, 2 usage error, 3 hypothesis violation,
4 search found nothing, 5 budget exhausted. search reports none (4) and
exhausted (5) in its result on stdout with no stderr object, construct --auto
as search-none / budget-exhausted error objects; every other failure emits one
structured JSON object on stderr. Machine-readable stdout (json / dot) never
interleaves with the human-readable table format.

main pauses Python's cyclic garbage collector while a command runs and turns
it back on after, unless the caller had it off; library functions leave it be.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from collections.abc import Iterable
from itertools import chain

from .constructors import (
    BALANCE_THEOREMS,
    BASE_LABELINGS,
    ConstructionRecipe,
    HypothesisViolation,
    normalize_theorem,
    run_recipe,
)
from .graph import (
    MAX_JSON_BYTES,
    Graph,
    exact_int,
    exact_ints,
    graph_from_json,
    graph_json_pieces,
    graph_to_dot,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
)
from .labeling import (
    AdmissionError,
    Labeling,
    edge_label,
    induced_tally,
    labeling_from_json,
    labeling_json_pieces,
    tally_report,
)
from .numtheory import LegendreContext, legendre_symbol
from .products import cartesian, corona, join, lexicographic, strong, tensor
from .search import (
    DEFAULT_NODE_BUDGET,
    MODES,
    Budget,
    DiffWindow,
    SearchSpec,
    find_base_labelings,
    search_labeling,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_SEARCH_NONE = 4
EXIT_BUDGET = 5

# search outcome -> exit code
_SEARCH_EXITS = {"found": EXIT_OK, "none": EXIT_SEARCH_NONE, "exhausted": EXIT_BUDGET}

_READ_CHUNK = 1 << 20  # bytes per read of a JSON file: read(n) allocates n bytes up front

# op name -> (operation, the vertex indexing its output reports)
_OPS = {
    "join": (join, "g1 vertices first, then g2 at offset |V(g1)|"),
    "corona": (corona, "copies of g2 blocked per host vertex, host vertices last"),
    "lex": (lexicographic, "(i, j) -> i*|V(g2)| + j"),
    "cart": (cartesian, "(i, j) -> i*|V(g2)| + j"),
    "tensor": (tensor, "(i, j) -> i*|V(g2)| + j"),
    "strong": (strong, "(i, j) -> i*|V(g2)| + j"),
}


class _CliFailure(Exception):
    def __init__(self, code: int, kind: str, message: str):
        self.code = code
        self.kind = kind
        super().__init__(message)


def _edges_family(rest: str) -> Graph:
    """[N:]u-v,...: N defaults to one more than the largest endpoint."""
    head, sep, tail = rest.partition(":")
    order = int(head) if sep else None
    body = tail if sep else rest
    edges = []
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        u, _, v = part.partition("-")
        edges.append((int(u), int(v)))
    if order is None:
        order = max((max(e) for e in edges), default=0) + 1
    return Graph(order, edges)


# family kind -> maker of its graph from the text after "kind:"
_FAMILIES = {
    "path": lambda rest: make_path(int(rest)),
    "cycle": lambda rest: make_cycle(int(rest)),
    "complete": lambda rest: make_complete(int(rest)),
    "star": lambda rest: make_star(int(rest)),
    "edges": _edges_family,
}


def parse_family(spec: str) -> Graph:
    """Inline family specs: path:N cycle:N complete:N star:N edges:[N:]u-v,..."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"family spec needs 'kind:args', got {spec!r}")
    kind = kind.strip().lower()
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    return _FAMILIES[kind](rest)


def load_graph_arg(spec: str) -> Graph:
    """A graph argument is an inline family spec or a path to graph JSON."""
    if spec.partition(":")[0].strip().lower() in _FAMILIES:
        return parse_family(spec)
    return graph_from_json(_read_json(spec, "cannot read graph file {!r}", "bad JSON in {!r}"))


def _read_json(path: str, unreadable: str, bad_json: str | None = None):
    """The JSON value in the file at path. A file over MAX_JSON_BYTES is a
    usage error, found by reading one byte past the cap, so a pipe is cut off
    there too. The io-error otherwise opens with unreadable, or with bad_json
    when the bytes are not UTF-8, or the text is not JSON, nests too deep or
    holds an integer too long for int(); a {!r} in either stands for the path."""
    try:
        with open(path, "rb") as fh:
            data = bytearray()  # ends at EOF or at one byte past the cap, where read(0) gives b""
            for chunk in iter(lambda: fh.read(min(_READ_CHUNK, MAX_JSON_BYTES + 1 - len(data))), b""):
                data += chunk
    except OSError as exc:
        raise _CliFailure(EXIT_IO, "io-error", f"{unreadable.format(path)}: {exc}")
    if len(data) > MAX_JSON_BYTES:
        raise ValueError(
            f"JSON file {path!r} exceeds the supported bound of {MAX_JSON_BYTES} bytes"
        )
    try:
        text = data.decode("utf-8")
        del data  # freed before the parse builds the document
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _CliFailure(EXIT_IO, "io-error", f"{(bad_json or unreadable).format(path)}: {exc}")


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """Write the pieces to out_path as they come, or to stdout ending in a newline."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise _CliFailure(EXIT_IO, "io-error", f"cannot write {out_path!r}: {exc}")
    else:
        last = ""
        sys.stdout.writelines((last := piece) for piece in pieces)
        if not last.endswith("\n"):
            sys.stdout.write("\n")


def _table(report: dict) -> str:
    """One ``key: value`` line per entry of a flat result."""
    return "".join(f"{key}: {val}\n" for key, val in report.items())


def _emit_report(report: dict, args) -> None:
    """A flat result as one JSON object, or as its table."""
    _emit([json.dumps(report) if args.format == "json" else _table(report)], args.out)


def _graph_table(g: Graph, extra: dict | None = None) -> str:
    edges = " ".join(f"{u}-{v}" for u, v in g.edges)
    return f"order: {g.order}\nsize:  {g.size}\nedges: {edges}\n" + _table(extra or {})


def _emit_graph(g: Graph, args, extra: dict | None = None, labeling: Labeling | None = None,
                ctx: LegendreContext | None = None) -> None:
    if args.format == "json":
        _emit(graph_json_pieces(g, extra), args.out)
    elif args.format == "dot":
        vlabels = list(labeling.assign) if labeling else None
        elabels = None
        if labeling is not None:  # each caller that passes a labeling passes its ctx
            elabels = {
                (u, v): edge_label(labeling.assign[u] + labeling.assign[v], ctx)
                for u, v in g.edges
            }
        _emit([graph_to_dot(g, vlabels, elabels)], args.out)
    else:
        _emit([_graph_table(g, extra)], args.out)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    g = parse_family(args.family)
    _emit_graph(g, args)
    return EXIT_OK


def _cmd_op(args) -> int:
    g1 = load_graph_arg(args.g1)
    g2 = load_graph_arg(args.g2)
    op, convention = _OPS[args.op]
    result = op(g1, g2)
    extra = {"convention": convention, "connected": is_connected(result)}
    if not extra["connected"]:
        extra["warnings"] = ["result is disconnected"]
    _emit_graph(result, args, extra)
    return EXIT_OK


def _parse_inline_labels(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _load_labeling_arg(spec: str, graph: Graph) -> tuple[Labeling, int | None]:
    if os.path.exists(spec):
        return labeling_from_json(_read_json(spec, "cannot read labeling {!r}"), graph)
    return Labeling(graph, _parse_inline_labels(spec)), None


def _cmd_verify(args) -> int:
    g = load_graph_arg(args.g)
    lab, p_from_file = _load_labeling_arg(args.labeling, g)
    p = args.p if args.p is not None else p_from_file
    if p is None:
        raise ValueError("no prime given: pass --p or a labeling file carrying p")
    ctx = LegendreContext(p)
    if not is_connected(g):
        raise AdmissionError("cordiality is defined for connected graphs only")
    if args.format == "dot":
        _emit_graph(g, args, labeling=lab, ctx=ctx)
    else:
        _emit_report(tally_report(induced_tally(lab, ctx)), args)
    return EXIT_OK


def _cmd_legendre(args) -> int:
    ctx = LegendreContext(args.p)
    sym = legendre_symbol(args.a, ctx)
    text = json.dumps({"a": args.a, "p": args.p, "symbol": sym}) if args.format == "json" else str(sym)
    _emit([text], args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    g = load_graph_arg(args.g)
    if args.objective == "cordial":
        objective = DiffWindow.cordial()
    elif args.objective.startswith("diffwin:"):
        objective = DiffWindow.around(int(args.objective.split(":", 1)[1]))
    elif args.objective.startswith("diff:"):
        objective = DiffWindow.exact(int(args.objective.split(":", 1)[1]))
    else:
        raise ValueError(f"bad objective {args.objective!r}; use cordial, diff:D or diffwin:D")
    spec = SearchSpec(
        g,
        args.p,
        objective=objective,
        budget=Budget(args.budget_nodes, args.budget_seconds),
        mode=args.mode,
    )
    result = search_labeling(spec)
    payload = result.to_json()
    _emit_report(payload if args.format == "json" else dict(sorted(payload.items())), args)
    return _SEARCH_EXITS[result.outcome]


def _recipe_from_json(obj: dict) -> ConstructionRecipe:
    try:
        theorem = normalize_theorem(obj["theorem"])
        if "p" not in obj:
            raise KeyError("p")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"recipe JSON needs 'theorem' and 'p': {exc}") from exc

    def graph_of(val) -> Graph | None:
        if val is None:
            return None
        if isinstance(val, str):
            return parse_family(val)
        return graph_from_json(val)

    def labels_of(val) -> tuple[int, ...] | None:
        return exact_ints(val, "label") if val is not None else None

    def field(key: str, read):
        try:
            return read(obj.get(key))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"recipe field {key!r}: {exc}") from exc

    return ConstructionRecipe(
        theorem=theorem,
        p=field("p", lambda val: exact_int(val, "p")),
        g1=field("g1", graph_of),
        g2=field("g2", graph_of),
        lab_g1=field("lab_g1", labels_of),
        lab_g2=field("lab_g2", labels_of),
    )


def _recipe_from_args(args) -> ConstructionRecipe:
    """The recipe in the --recipe file, or the one the flags spell out."""
    if args.recipe:
        return _recipe_from_json(_read_json(args.recipe, "cannot read recipe", "bad recipe JSON"))
    if args.theorem is None:
        raise ValueError("construct needs a theorem name or --recipe")
    if args.p is None:
        raise ValueError("construct needs --p")
    theorem = normalize_theorem(args.theorem)
    if theorem not in BALANCE_THEOREMS:
        spec = args.g or args.g1 or args.g2
        if spec is None:
            raise ValueError(f"construction {theorem} needs --g")
        g = load_graph_arg(spec)
        return ConstructionRecipe(theorem, args.p, g, None)
    if args.g1 is None or args.g2 is None:
        raise ValueError(f"construction {theorem} needs --g1 and --g2")
    g1, g2 = load_graph_arg(args.g1), load_graph_arg(args.g2)  # both before the labels
    labs = (_parse_inline_labels(text) if text else None for text in (args.lab_g1, args.lab_g2))
    return ConstructionRecipe(theorem, args.p, g1, g2, *labs)


def _with_base_labelings(recipe: ConstructionRecipe, args) -> ConstructionRecipe:
    """The recipe; with --auto and every needed base labeling missing, the one search finds."""
    theorem, labs = recipe.theorem, (recipe.lab_g1, recipe.lab_g2)
    given = [lab is not None for lab, needed in zip(labs, BASE_LABELINGS[theorem]) if needed]
    if all(given) or recipe.g1 is None or recipe.g2 is None:
        return recipe  # run_recipe names a missing factor graph
    if not args.auto:
        raise ValueError(f"construction {theorem} needs base labelings; pass them or use --auto")
    if any(given):
        raise ValueError(
            f"construction {theorem} --auto searches for both base labelings; pass both"
            " --lab-g1 and --lab-g2 (lab_g1 and lab_g2 in a recipe) or neither"
        )
    budget = Budget(args.budget_nodes, args.budget_seconds)
    found = find_base_labelings(theorem, recipe.g1, recipe.g2, recipe.p, budget)
    if found.outcome == "none":
        raise _CliFailure(EXIT_SEARCH_NONE, "search-none",
                          f"no base labelings satisfy the {theorem} hypothesis")
    if found.outcome == "exhausted":
        raise _CliFailure(EXIT_BUDGET, "budget-exhausted", "base-labeling search ran out of budget")
    return found.recipe


def _cmd_construct(args) -> int:
    recipe = _with_base_labelings(_recipe_from_args(args), args)

    # run_recipe raised unless the verifier's tally equals the prediction
    graph, lab, predicted = run_recipe(recipe)
    if args.format == "json":
        # the bundle {"theorem", "p", "graph", "labeling", "predicted", "verified"}
        head = f'{{"theorem": {json.dumps(recipe.theorem)}, "p": {json.dumps(recipe.p)}, "graph": '
        tail = (
            f', "predicted": {json.dumps({"e0": predicted.e0, "e1": predicted.e1})}'
            f', "verified": {json.dumps(tally_report(predicted))}}}'
        )
        pieces = chain(
            [head],
            graph_json_pieces(graph),
            [', "labeling": '],
            labeling_json_pieces(lab, recipe.p),
            [tail],
        )
        _emit(pieces, args.out)
    elif args.format == "dot":
        _emit_graph(graph, args, labeling=lab, ctx=LegendreContext(recipe.p))
    else:
        pair = (predicted.e0, predicted.e1)
        _emit_report({"theorem": recipe.theorem, "p": recipe.p, "order": graph.order,
                      "size": graph.size, "predicted": pair, "verified": pair,
                      "cordial": predicted.is_cordial}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors (unknown flags, bad values) as one JSON error object."""

    def error(self, message: str):
        self.exit(_fail(EXIT_USAGE, "usage-error", f"{self.prog}: {message}"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="legcordial",
        description="Legendre cordial labelings: generate, operate, construct, verify, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats=("json", "dot", "table")):
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=formats, default="json", help="output format")

    def add_budget(sp):
        sp.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
        sp.add_argument("--budget-seconds", type=float, default=None)

    sp = sub.add_parser("gen", help="generate a family graph (path:N cycle:N complete:N star:N edges:...)")
    sp.add_argument("family")
    add_common(sp)
    sp.set_defaults(handler=_cmd_gen)

    sp = sub.add_parser("op", help="apply a binary graph operation")
    sp.add_argument("op", choices=sorted(_OPS))
    sp.add_argument("g1")
    sp.add_argument("g2")
    add_common(sp)
    sp.set_defaults(handler=_cmd_op)

    sp = sub.add_parser("construct", help="run a constructive labeling")
    sp.add_argument("theorem", nargs="?", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--g", default=None, help="single factor (corona-path / kp-tensor)")
    sp.add_argument("--g1", default=None)
    sp.add_argument("--g2", default=None)
    sp.add_argument("--lab-g1", dest="lab_g1", default=None, help="comma-separated labels")
    sp.add_argument("--lab-g2", dest="lab_g2", default=None, help="comma-separated labels")
    sp.add_argument("--auto", action="store_true", help="search for base labelings")
    sp.add_argument("--recipe", default=None, help="recipe JSON file")
    add_common(sp)
    add_budget(sp)
    sp.set_defaults(handler=_cmd_construct)

    sp = sub.add_parser("verify", help="verify a labeling")
    sp.add_argument("--g", required=True)
    sp.add_argument("--labeling", required=True, help="labeling JSON file or comma-separated labels")
    sp.add_argument("--p", type=int, default=None)
    add_common(sp)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("search", help="search for a labeling")
    sp.add_argument("--g", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--objective", default="cordial", help="cordial | diff:D | diffwin:D")
    sp.add_argument("--mode", choices=MODES, default="find-first")
    add_common(sp, ("json", "table"))
    add_budget(sp)
    sp.set_defaults(handler=_cmd_search)

    sp = sub.add_parser("legendre", help="Legendre symbol (a/p)")
    sp.add_argument("a", type=int)
    sp.add_argument("p", type=int)
    add_common(sp, ("json", "table"))
    sp.set_defaults(handler=_cmd_legendre)

    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"code": code, "type": kind, "message": message}}) + "\n")
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses: building it costs about a millisecond."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # A command's data are JSON trees, lists and tuples of ints: acyclic, so
    # reference counting frees them, and the cyclic collector would only walk
    # them again and again (README "Limits" has what that costs a verify). The
    # search engine makes no reference cycle; any cyclic garbage left is
    # collected once the collector is back on. A caller who had it off keeps
    # it off.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except _CliFailure as exc:
        return _fail(exc.code, exc.kind, str(exc))
    except HypothesisViolation as exc:
        return _fail(EXIT_HYPOTHESIS, "hypothesis-violation", str(exc))
    except AdmissionError as exc:
        return _fail(EXIT_HYPOTHESIS, "admission-error", str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, "usage-error", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io-error", str(exc))
    except MemoryError:  # a resource failure: the same input may fit a larger machine
        return _fail(EXIT_IO, "out-of-memory", "ran out of memory")
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
