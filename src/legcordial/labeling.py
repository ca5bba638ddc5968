"""Vertex labelings and the induced 0/1 edge function.

A labeling of a graph of order n assigns the labels 1..n bijectively to its
vertices. For an odd prime p, an edge uv gets induced label 1 exactly when
the Legendre symbol of f(u) + f(v) mod p is +1, and 0 otherwise: when the
symbol is -1 (a nonresidue) or 0 (a sum divisible by p). A labeling is
cordial mod p when the two induced counts differ by at most 1; the
definition only admits connected graphs.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

from .graph import JSON_CHUNK, Edge, Graph, Record, exact_int, exact_ints, is_connected
from .numtheory import LegendreContext


class AdmissionError(ValueError):
    """The graph falls outside the labeling definition (it is disconnected)."""


class Labeling(Record):
    """Bijection vertex -> {1, ..., n}, stored densely by vertex index as a tuple."""

    __slots__ = ("graph", "assign")

    def __init__(self, graph: Graph, assign: tuple[int, ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "assign", assign)
        self.__post_init__()

    def __post_init__(self):
        # keep the checked tuple, never the caller's list, so the value is immutable
        n, assign = self.graph.order, exact_ints(self.assign, "labeling entry")
        object.__setattr__(self, "assign", assign)
        # n distinct ints from 1 to n are exactly 1..n
        if len(assign) != n or len(set(assign)) != n or min(assign) != 1 or max(assign) != n:
            raise ValueError(f"assign must be a permutation of 1..{n}")


class EdgeTally(Record):
    """Counts of induced edge labels; difference d = e1 - e0, as search uses it."""

    __slots__ = ("e0", "e1")

    def __init__(self, e0: int, e1: int):
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "e1", e1)

    @property
    def difference(self) -> int:
        return self.e1 - self.e0

    @property
    def is_cordial(self) -> bool:
        return abs(self.e0 - self.e1) <= 1


def edge_label(total: int, ctx: LegendreContext) -> int:
    """Induced label of an edge whose endpoint labels sum to total."""
    return 1 if ctx.symbols[total % ctx.p] == 1 else 0


def induced_tally(lab: Labeling, ctx: LegendreContext) -> EdgeTally:
    """Tally edge_label(f(u) + f(v)) over every edge of the labeled graph."""
    # edge_label inlined
    assign, sym, p = lab.assign, ctx.symbols, ctx.p
    e1 = sum(1 for u, v in lab.graph.edges if sym[(assign[u] + assign[v]) % p] == 1)
    return EdgeTally(e0=lab.graph.size - e1, e1=e1)


def is_cordial(lab: Labeling, ctx: LegendreContext) -> bool:
    """True iff |e0 - e1| <= 1; only connected graphs are admitted."""
    if not is_connected(lab.graph):
        raise AdmissionError("cordiality is defined for connected graphs only")
    return induced_tally(lab, ctx).is_cordial


def rho_eta(lab: Labeling, ctx: LegendreContext) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """The pair (rho, eta): the frozensets of the edges with induced label 1
    and of those with label 0. induced_tally gives their sizes as e1 and e0."""
    assign = lab.assign
    rho, eta = [], []
    for u, v in lab.graph.edges:
        (rho if edge_label(assign[u] + assign[v], ctx) else eta).append((u, v))
    return frozenset(rho), frozenset(eta)


def labeling_to_json(lab: Labeling, p: int) -> dict:
    """The labeling as a dict; the CLI writes it with labeling_json_pieces instead."""
    return {"p": p, "assign": list(lab.assign)}


def labeling_json_pieces(lab: Labeling, p: int) -> Iterator[str]:
    """The text of json.dumps(labeling_to_json(lab, p)), in pieces of at most
    JSON_CHUNK labels read straight from lab.assign (exact ints, which str()
    writes as json does)."""
    assign = lab.assign
    yield f'{{"p": {json.dumps(p)}, "assign": ['
    for i in range(0, len(assign), JSON_CHUNK):
        piece = ", ".join(map(str, assign[i : i + JSON_CHUNK]))
        yield ", " + piece if i else piece
    yield "]}"


def labeling_from_json(obj: dict, graph: Graph) -> tuple[Labeling, int | None]:
    """Read the {"p", "assign"} format, with exact ints only, against a known graph."""
    try:
        assign = obj["assign"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"labeling JSON needs 'assign': {exc}") from exc
    p = obj.get("p")
    try:
        lab = Labeling(graph, tuple(assign))
        return lab, exact_int(p, "labeling p") if p is not None else None
    except TypeError as exc:  # a non-int entry or p, or a non-list assign
        raise ValueError(f"malformed labeling JSON: {exc}") from exc


def tally_report(tally: EdgeTally) -> dict:
    """Verification report payload: {"e0", "e1", "cordial"}."""
    return {"e0": tally.e0, "e1": tally.e1, "cordial": tally.is_cordial}
